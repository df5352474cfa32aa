#include "store/snapshot.h"

#include <cstdint>
#include <cstring>

#include "common/hash.h"

namespace hbold::store {

namespace {

constexpr char kMagic[8] = {'H', 'B', 'S', 'N', 'A', 'P', '1', '\n'};
constexpr uint32_t kVersion = 1;
constexpr size_t kHeaderBytes = 32;

void WriteU32(char* p, uint32_t v) { std::memcpy(p, &v, 4); }

void WriteU64(char* p, uint64_t v) { std::memcpy(p, &v, 8); }

uint32_t ReadU32(const char* p) {
  uint32_t v;
  std::memcpy(&v, p, 4);
  return v;
}

uint64_t ReadU64(const char* p) {
  uint64_t v;
  std::memcpy(&v, p, 8);
  return v;
}

char HexDigit(unsigned v) { return v < 10 ? char('0' + v) : char('A' + v - 10); }

int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  return -1;
}

}  // namespace

std::string SnapshotHead(const std::string& name,
                         const std::vector<std::string_view>& payload) {
  std::string head(kHeaderBytes, '\0');
  head.append(name);
  uint64_t payload_len = 0;
  uint64_t checksum = Fnv64(name);
  for (const std::string_view piece : payload) {
    payload_len += piece.size();
    checksum = Fnv64(piece, checksum);
  }
  std::memcpy(head.data(), kMagic, sizeof(kMagic));
  WriteU32(head.data() + 8, kVersion);
  WriteU32(head.data() + 12, static_cast<uint32_t>(name.size()));
  WriteU64(head.data() + 16, payload_len);
  WriteU64(head.data() + 24, checksum);
  return head;
}

Status DecodeSnapshot(std::string_view data, std::string_view* name,
                      std::string_view* payload) {
  if (data.size() < kHeaderBytes) {
    return Status::ParseError("snapshot truncated: " +
                              std::to_string(data.size()) +
                              " bytes, header needs 32");
  }
  if (std::memcmp(data.data(), kMagic, sizeof(kMagic)) != 0) {
    return Status::ParseError("snapshot has bad magic");
  }
  const uint32_t version = ReadU32(data.data() + 8);
  if (version != kVersion) {
    return Status::ParseError("snapshot version " + std::to_string(version) +
                              " unsupported (expected 1)");
  }
  const uint64_t name_len = ReadU32(data.data() + 12);
  const uint64_t payload_len = ReadU64(data.data() + 16);
  const uint64_t checksum = ReadU64(data.data() + 24);
  if (data.size() != kHeaderBytes + name_len + payload_len) {
    return Status::ParseError(
        "snapshot size mismatch: file has " + std::to_string(data.size()) +
        " bytes, header claims " +
        std::to_string(kHeaderBytes + name_len + payload_len));
  }
  const std::string_view name_bytes = data.substr(kHeaderBytes, name_len);
  const std::string_view payload_bytes = data.substr(kHeaderBytes + name_len);
  if (Fnv64(payload_bytes, Fnv64(name_bytes)) != checksum) {
    return Status::ParseError("snapshot checksum mismatch (corrupt content)");
  }
  *name = name_bytes;
  *payload = payload_bytes;
  return Status::OK();
}

std::string EncodeSnapshotFilename(const std::string& name) {
  std::string out;
  out.reserve(name.size());
  for (unsigned char c : name) {
    const bool safe = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                      c == '_' || c == '-';
    if (safe) {
      out.push_back(static_cast<char>(c));
    } else {
      out.push_back('%');
      out.push_back(HexDigit(c >> 4));
      out.push_back(HexDigit(c & 0xF));
    }
  }
  return out;
}

Result<std::string> DecodeSnapshotFilename(const std::string& encoded) {
  std::string out;
  out.reserve(encoded.size());
  for (size_t i = 0; i < encoded.size(); ++i) {
    if (encoded[i] != '%') {
      out.push_back(encoded[i]);
      continue;
    }
    if (i + 2 >= encoded.size()) {
      return Status::ParseError("truncated %-escape in '" + encoded + "'");
    }
    const int hi = HexValue(encoded[i + 1]);
    const int lo = HexValue(encoded[i + 2]);
    if (hi < 0 || lo < 0) {
      return Status::ParseError("bad %-escape in '" + encoded + "'");
    }
    out.push_back(static_cast<char>((hi << 4) | lo));
    i += 2;
  }
  return out;
}

}  // namespace hbold::store
