#ifndef HBOLD_STORE_SNAPSHOT_H_
#define HBOLD_STORE_SNAPSHOT_H_

#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "common/status.h"

namespace hbold::store {

/// Versioned binary snapshot codec for Database persistence.
///
/// A snapshot file (`<encoded-name>.hbsnap`) carries one collection:
///
///   offset  size  field
///   0       8     magic "HBSNAP1\n"
///   8       4     version (u32, currently 1)
///   12      4     name length in bytes (u32)
///   16      8     payload length in bytes (u64)
///   24      8     FNV-1a 64 of name + payload (u64)
///   32      -     collection name (exact bytes, not the encoded filename)
///   32+n    -     payload: the collection's JSONL dump
///
/// The collection name travels *inside* the snapshot, so Save/Load
/// round-trips it exactly — names ending in ".jsonl", names differing only
/// by case, names with characters that are unrepresentable (or mutually
/// colliding) in filenames all survive. The filename is only a
/// filesystem-safe handle, produced by EncodeSnapshotFilename.

/// Returns the bytes that open a snapshot of collection `name` whose
/// payload is the concatenation of `payload`: the header (with the payload
/// length and the checksum over name + payload filled in) followed by the
/// name. The file is these bytes followed by the pieces in order; the
/// pieces are never joined into one buffer.
std::string SnapshotHead(const std::string& name,
                         const std::vector<std::string_view>& payload);

/// Parses a snapshot; fails with a descriptive Status on a truncated file,
/// bad magic, unsupported version, or checksum mismatch. Never crashes on
/// arbitrary bytes. `name` and `payload` point into `data`.
Status DecodeSnapshot(std::string_view data, std::string_view* name,
                      std::string_view* payload);

/// Maps a collection name to a filesystem-safe stem: bytes in [a-z0-9_-]
/// pass through, everything else (including uppercase, '.', '/', '%')
/// becomes "%XX" with uppercase hex. The image alphabet contains no
/// uppercase letters outside the %XX escapes, so two distinct names never
/// produce encodings that collide on a case-insensitive filesystem.
std::string EncodeSnapshotFilename(const std::string& name);

/// Inverse of EncodeSnapshotFilename. Bytes other than '%' pass through,
/// so plain legacy stems decode to themselves. Fails on a malformed escape.
Result<std::string> DecodeSnapshotFilename(const std::string& encoded);

}  // namespace hbold::store

#endif  // HBOLD_STORE_SNAPSHOT_H_
