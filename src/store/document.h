#ifndef HBOLD_STORE_DOCUMENT_H_
#define HBOLD_STORE_DOCUMENT_H_

#include <cstdint>
#include <memory>
#include <string>

#include "common/json.h"

namespace hbold::store {

/// Documents are JSON objects with a store-assigned integer `_id` field.
using Document = hbold::Json;
using DocId = int64_t;
/// A stored document. The store never mutates a document it has handed
/// out: writers swap in a new one, so a handle stays valid and unchanged
/// for as long as the reader holds it.
using DocHandle = std::shared_ptr<const Document>;

inline constexpr const char* kIdField = "_id";

}  // namespace hbold::store

#endif  // HBOLD_STORE_DOCUMENT_H_
