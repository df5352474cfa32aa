#ifndef HBOLD_COMMON_IO_UTIL_H_
#define HBOLD_COMMON_IO_UTIL_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hbold::io {

/// Durably replaces `path` with the concatenation of `pieces`: writes them
/// in order to `path + ".tmp"` (no joined copy is made), fsyncs the file,
/// renames it into place, then fsyncs the parent directory so the rename
/// itself survives a crash. A failure at any step removes the temp file
/// (best effort) and leaves any previous `path` intact. Calls for distinct
/// paths may run concurrently.
Status WriteFileDurable(const std::string& path,
                        const std::vector<std::string_view>& pieces);

/// fsyncs a directory so previously renamed entries are durable. No-op
/// success on platforms where directories cannot be opened for sync.
Status FsyncDirectory(const std::string& dir);

/// Reads a whole file into a string.
Result<std::string> ReadFile(const std::string& path);

}  // namespace hbold::io

#endif  // HBOLD_COMMON_IO_UTIL_H_
