#include "rdf/run_file.h"

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <memory>
#include <queue>
#include <utility>

#include "common/hash.h"
#include "common/io_util.h"

namespace hbold::rdf {

namespace {

// Runs start with one 4 KiB header page so the triple array behind them is
// page-aligned; the remainder of the page is zero.
constexpr size_t kRunHeaderBytes = 4096;
constexpr char kRunMagic[8] = {'H', 'B', 'R', 'U', 'N', '1', '\0', '\0'};
constexpr char kChunkMagic[8] = {'H', 'B', 'C', 'H', 'K', '1', '\0', '\0'};
constexpr uint32_t kRunVersion = 1;

struct RunFileHeader {
  char magic[8];
  uint32_t version;
  uint32_t order;
  uint64_t count;
  uint64_t checksum;  // Fnv64 over the 24 bytes above
};
static_assert(sizeof(RunFileHeader) == 32, "header layout");
static_assert(sizeof(Triple) == 12, "runs assume packed 3x u32 triples");

uint64_t HeaderChecksum(const RunFileHeader& h) {
  return Fnv64(std::string_view(reinterpret_cast<const char*>(&h), 24));
}

struct ChunkHeader {
  char magic[8];
  uint32_t version;
  uint32_t order;
  uint64_t count;
};
static_assert(sizeof(ChunkHeader) == 24, "chunk header layout");

Status ErrnoStatus(const std::string& what, const std::string& path) {
  return Status::IOError(what + " '" + path + "': " + std::strerror(errno));
}

// Both are total: an out-of-range order (which header decoding rejects)
// falls back to kSpo, so every key is always initialised.
inline void Permute(RunOrder order, const Triple& t, uint32_t k[3]) {
  switch (order) {
    case RunOrder::kPos:
      k[0] = t.p; k[1] = t.o; k[2] = t.s;
      return;
    case RunOrder::kOsp:
      k[0] = t.o; k[1] = t.s; k[2] = t.p;
      return;
    case RunOrder::kSpo:
    default:
      k[0] = t.s; k[1] = t.p; k[2] = t.o;
      return;
  }
}

inline Triple Unpermute(RunOrder order, const uint32_t k[3]) {
  Triple t;
  switch (order) {
    case RunOrder::kPos:
      t.p = k[0]; t.o = k[1]; t.s = k[2];
      return t;
    case RunOrder::kOsp:
      t.o = k[0]; t.s = k[1]; t.p = k[2];
      return t;
    case RunOrder::kSpo:
    default:
      t.s = k[0]; t.p = k[1]; t.o = k[2];
      return t;
  }
}

void AppendVarint(std::vector<uint8_t>* out, uint32_t v) {
  while (v >= 0x80) {
    out->push_back(static_cast<uint8_t>(v) | 0x80);
    v >>= 7;
  }
  out->push_back(static_cast<uint8_t>(v));
}

Status WriteAll(int fd, const void* data, size_t len, const std::string& path) {
  const char* p = static_cast<const char*>(data);
  while (len > 0) {
    ssize_t n = ::write(fd, p, len);
    if (n < 0) {
      if (errno == EINTR) continue;
      return ErrnoStatus("write failed for", path);
    }
    p += n;
    len -= static_cast<size_t>(n);
  }
  return Status::OK();
}

}  // namespace

bool RunLess(RunOrder order, const Triple& a, const Triple& b) {
  uint32_t ka[3], kb[3];
  Permute(order, a, ka);
  Permute(order, b, kb);
  return std::lexicographical_compare(ka, ka + 3, kb, kb + 3);
}

// ---------------------------------------------------------- MappedTripleRun

MappedTripleRun::~MappedTripleRun() { Close(); }

MappedTripleRun::MappedTripleRun(MappedTripleRun&& other) noexcept
    : map_(other.map_), map_len_(other.map_len_), data_(other.data_),
      count_(other.count_), path_(std::move(other.path_)) {
  other.map_ = nullptr;
  other.map_len_ = 0;
  other.data_ = nullptr;
  other.count_ = 0;
}

MappedTripleRun& MappedTripleRun::operator=(MappedTripleRun&& other) noexcept {
  if (this != &other) {
    Close();
    map_ = other.map_;
    map_len_ = other.map_len_;
    data_ = other.data_;
    count_ = other.count_;
    path_ = std::move(other.path_);
    other.map_ = nullptr;
    other.map_len_ = 0;
    other.data_ = nullptr;
    other.count_ = 0;
  }
  return *this;
}

void MappedTripleRun::Close() {
  if (map_ != nullptr) ::munmap(map_, map_len_);
  map_ = nullptr;
  map_len_ = 0;
  data_ = nullptr;
  count_ = 0;
  path_.clear();
}

Status MappedTripleRun::Open(const std::string& path) {
  Close();
  int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return ErrnoStatus("cannot open run", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    ::close(fd);
    return ErrnoStatus("cannot stat run", path);
  }
  RunFileHeader header;
  if (st.st_size < static_cast<off_t>(kRunHeaderBytes) ||
      ::pread(fd, &header, sizeof(header), 0) !=
          static_cast<ssize_t>(sizeof(header))) {
    ::close(fd);
    return Status::ParseError("run '" + path + "': truncated header");
  }
  if (std::memcmp(header.magic, kRunMagic, sizeof(kRunMagic)) != 0) {
    ::close(fd);
    return Status::ParseError("run '" + path + "': bad magic");
  }
  if (header.version != kRunVersion) {
    ::close(fd);
    return Status::Unsupported("run '" + path + "': version " +
                               std::to_string(header.version));
  }
  if (header.checksum != HeaderChecksum(header)) {
    ::close(fd);
    return Status::ParseError("run '" + path + "': header checksum mismatch");
  }
  const uint64_t expected =
      kRunHeaderBytes + header.count * sizeof(Triple);
  if (static_cast<uint64_t>(st.st_size) != expected) {
    ::close(fd);
    return Status::ParseError(
        "run '" + path + "': size " + std::to_string(st.st_size) +
        " does not match header count " + std::to_string(header.count));
  }
  count_ = header.count;
  path_ = path;
  if (count_ > 0) {
    void* base = ::mmap(nullptr, expected, PROT_READ, MAP_PRIVATE, fd, 0);
    if (base == MAP_FAILED) {
      ::close(fd);
      count_ = 0;
      path_.clear();
      return ErrnoStatus("mmap failed for run", path);
    }
    map_ = base;
    map_len_ = expected;
    data_ = reinterpret_cast<const Triple*>(static_cast<char*>(base) +
                                            kRunHeaderBytes);
  }
  ::close(fd);
  return Status::OK();
}

// --------------------------------------------------------------- RunWriter

RunWriter::~RunWriter() { Abort(); }

void RunWriter::Abort() {
  if (fd_ >= 0) {
    ::close(fd_);
    fd_ = -1;
    ::unlink(tmp_.c_str());
  }
}

Status RunWriter::Open(const std::string& path, RunOrder order) {
  Abort();
  path_ = path;
  tmp_ = path + ".tmp";
  order_ = order;
  count_ = 0;
  buffer_.clear();
  buffer_.reserve(size_t{64} << 10);
  fd_ = ::open(tmp_.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd_ < 0) return ErrnoStatus("cannot open", tmp_);
  // Reserve the header page; the real header lands in Finish().
  char zeros[kRunHeaderBytes] = {};
  Status st = WriteAll(fd_, zeros, sizeof(zeros), tmp_);
  if (!st.ok()) Abort();
  return st;
}

Status RunWriter::FlushBuffer() {
  if (buffer_.empty()) return Status::OK();
  Status st = WriteAll(fd_, buffer_.data(), buffer_.size() * sizeof(Triple),
                       tmp_);
  buffer_.clear();
  return st;
}

Status RunWriter::Append(const Triple& t) {
  buffer_.push_back(t);
  ++count_;
  if (buffer_.size() >= (size_t{64} << 10)) {
    Status st = FlushBuffer();
    if (!st.ok()) {
      Abort();
      return st;
    }
  }
  return Status::OK();
}

Status RunWriter::Finish(MappedTripleRun* out) {
  if (fd_ < 0) return Status::Internal("RunWriter::Finish without Open");
  Status st = FlushBuffer();
  if (!st.ok()) {
    Abort();
    return st;
  }
  RunFileHeader header = {};
  std::memcpy(header.magic, kRunMagic, sizeof(kRunMagic));
  header.version = kRunVersion;
  header.order = static_cast<uint32_t>(order_);
  header.count = count_;
  header.checksum = HeaderChecksum(header);
  if (::pwrite(fd_, &header, sizeof(header), 0) !=
      static_cast<ssize_t>(sizeof(header))) {
    st = ErrnoStatus("header write failed for", tmp_);
    Abort();
    return st;
  }
  if (::fsync(fd_) != 0) {
    st = ErrnoStatus("fsync failed for", tmp_);
    Abort();
    return st;
  }
  ::close(fd_);
  fd_ = -1;
  if (::rename(tmp_.c_str(), path_.c_str()) != 0) {
    st = ErrnoStatus("cannot rename", tmp_);
    ::unlink(tmp_.c_str());
    return st;
  }
  std::string parent = path_;
  size_t slash = parent.find_last_of('/');
  parent = slash == std::string::npos ? "." : parent.substr(0, slash);
  HBOLD_RETURN_NOT_OK(io::FsyncDirectory(parent));
  if (out != nullptr) return out->Open(path_);
  return Status::OK();
}

// ------------------------------------------------------------ delta chunks

Status WriteDeltaChunk(const std::string& path, RunOrder order,
                       const Triple* data, size_t n) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return ErrnoStatus("cannot open chunk", path);
  ChunkHeader header = {};
  std::memcpy(header.magic, kChunkMagic, sizeof(kChunkMagic));
  header.version = kRunVersion;
  header.order = static_cast<uint32_t>(order);
  header.count = n;
  std::vector<uint8_t> buf;
  buf.reserve(size_t{1} << 20);
  buf.insert(buf.end(), reinterpret_cast<uint8_t*>(&header),
             reinterpret_cast<uint8_t*>(&header) + sizeof(header));
  uint32_t prev[3] = {0, 0, 0};
  for (size_t i = 0; i < n; ++i) {
    uint32_t k[3];
    Permute(order, data[i], k);
    if (i == 0) {
      AppendVarint(&buf, k[0]);
      AppendVarint(&buf, k[1]);
      AppendVarint(&buf, k[2]);
    } else {
      // Strictly increasing tuples: encode the delta of the first changed
      // component, then the later components raw.
      const uint32_t d0 = k[0] - prev[0];
      AppendVarint(&buf, d0);
      if (d0 != 0) {
        AppendVarint(&buf, k[1]);
        AppendVarint(&buf, k[2]);
      } else {
        const uint32_t d1 = k[1] - prev[1];
        AppendVarint(&buf, d1);
        if (d1 != 0) {
          AppendVarint(&buf, k[2]);
        } else {
          AppendVarint(&buf, k[2] - prev[2]);
        }
      }
    }
    prev[0] = k[0];
    prev[1] = k[1];
    prev[2] = k[2];
    if (buf.size() >= (size_t{1} << 20)) {
      if (std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
        std::fclose(f);
        ::unlink(path.c_str());
        return ErrnoStatus("chunk write failed for", path);
      }
      buf.clear();
    }
  }
  if (!buf.empty() &&
      std::fwrite(buf.data(), 1, buf.size(), f) != buf.size()) {
    std::fclose(f);
    ::unlink(path.c_str());
    return ErrnoStatus("chunk write failed for", path);
  }
  if (std::fclose(f) != 0) {
    ::unlink(path.c_str());
    return ErrnoStatus("chunk close failed for", path);
  }
  return Status::OK();
}

DeltaChunkReader::~DeltaChunkReader() {
  if (file_ != nullptr) std::fclose(file_);
}

Status DeltaChunkReader::Open(const std::string& path) {
  if (file_ != nullptr) {
    std::fclose(file_);
    file_ = nullptr;
  }
  file_ = std::fopen(path.c_str(), "rb");
  if (file_ == nullptr) return ErrnoStatus("cannot open chunk", path);
  ChunkHeader header;
  if (std::fread(&header, sizeof(header), 1, file_) != 1 ||
      std::memcmp(header.magic, kChunkMagic, sizeof(kChunkMagic)) != 0 ||
      header.version != kRunVersion || header.order > 2) {
    std::fclose(file_);
    file_ = nullptr;
    return Status::ParseError("chunk '" + path + "': bad header");
  }
  order_ = static_cast<RunOrder>(header.order);
  count_ = header.count;
  produced_ = 0;
  prev_[0] = prev_[1] = prev_[2] = 0;
  buf_.assign(size_t{256} << 10, 0);
  buf_pos_ = buf_len_ = 0;
  status_ = Status::OK();
  return Status::OK();
}

bool DeltaChunkReader::ReadByte(uint8_t* b) {
  if (buf_pos_ >= buf_len_) {
    buf_len_ = std::fread(buf_.data(), 1, buf_.size(), file_);
    buf_pos_ = 0;
    if (buf_len_ == 0) {
      status_ = Status::ParseError("chunk truncated mid-triple");
      return false;
    }
  }
  *b = buf_[buf_pos_++];
  return true;
}

bool DeltaChunkReader::ReadVarint(uint32_t* v) {
  uint32_t result = 0;
  int shift = 0;
  uint8_t byte = 0;
  do {
    if (shift > 28 || !ReadByte(&byte)) {
      if (status_.ok()) status_ = Status::ParseError("chunk varint overflow");
      return false;
    }
    result |= static_cast<uint32_t>(byte & 0x7F) << shift;
    shift += 7;
  } while (byte & 0x80);
  *v = result;
  return true;
}

bool DeltaChunkReader::Next(Triple* t) {
  if (file_ == nullptr || !status_.ok() || produced_ >= count_) return false;
  uint32_t k[3];
  if (produced_ == 0) {
    if (!ReadVarint(&k[0]) || !ReadVarint(&k[1]) || !ReadVarint(&k[2])) {
      return false;
    }
  } else {
    uint32_t d0;
    if (!ReadVarint(&d0)) return false;
    if (d0 != 0) {
      k[0] = prev_[0] + d0;
      if (!ReadVarint(&k[1]) || !ReadVarint(&k[2])) return false;
    } else {
      uint32_t d1;
      k[0] = prev_[0];
      if (!ReadVarint(&d1)) return false;
      if (d1 != 0) {
        k[1] = prev_[1] + d1;
        if (!ReadVarint(&k[2])) return false;
      } else {
        uint32_t d2;
        k[1] = prev_[1];
        if (!ReadVarint(&d2)) return false;
        k[2] = prev_[2] + d2;
      }
    }
  }
  prev_[0] = k[0];
  prev_[1] = k[1];
  prev_[2] = k[2];
  *t = Unpermute(order_, k);
  ++produced_;
  return true;
}

// ----------------------------------------------------------- external sort

namespace {

/// Raw fixed-width chunk reader for the generic-comparator sort.
class RawChunkReader {
 public:
  ~RawChunkReader() {
    if (file_ != nullptr) std::fclose(file_);
  }
  Status Open(const std::string& path) {
    file_ = std::fopen(path.c_str(), "rb");
    if (file_ == nullptr) return ErrnoStatus("cannot open chunk", path);
    buf_.reserve(size_t{16} << 10);
    return Status::OK();
  }
  bool Next(Triple* t) {
    if (pos_ >= buf_.size()) {
      buf_.resize(size_t{16} << 10);
      size_t n = std::fread(buf_.data(), sizeof(Triple), buf_.size(), file_);
      buf_.resize(n);
      pos_ = 0;
      if (n == 0) return false;
    }
    *t = buf_[pos_++];
    return true;
  }

 private:
  std::FILE* file_ = nullptr;
  std::vector<Triple> buf_;
  size_t pos_ = 0;
};

template <typename Reader, typename Less>
Status MergeChunksToRun(std::vector<std::unique_ptr<Reader>>* readers,
                        const Less& less, RunOrder order,
                        const std::string& out_path, MappedTripleRun* out) {
  RunWriter writer;
  HBOLD_RETURN_NOT_OK(writer.Open(out_path, order));
  struct HeapItem {
    Triple t;
    size_t src;
  };
  auto heap_after = [&](const HeapItem& a, const HeapItem& b) {
    // priority_queue pops the largest; invert, tie-break on source index
    // for a deterministic merge of equal triples (generic comparators may
    // see distinct triples as equivalent).
    if (less(a.t, b.t)) return false;
    if (less(b.t, a.t)) return true;
    return a.src > b.src;
  };
  std::priority_queue<HeapItem, std::vector<HeapItem>, decltype(heap_after)>
      heap(heap_after);
  for (size_t i = 0; i < readers->size(); ++i) {
    Triple t;
    if ((*readers)[i]->Next(&t)) heap.push(HeapItem{t, i});
  }
  while (!heap.empty()) {
    HeapItem item = heap.top();
    heap.pop();
    HBOLD_RETURN_NOT_OK(writer.Append(item.t));
    Triple t;
    if ((*readers)[item.src]->Next(&t)) heap.push(HeapItem{t, item.src});
  }
  return writer.Finish(out);
}

size_t FragmentCapacity(size_t budget_bytes) {
  // Half the budget for the in-RAM sort fragment, the rest for merge-side
  // buffers; floor keeps pathological tiny budgets from exploding the
  // chunk count.
  return std::max<size_t>(4096, budget_bytes / sizeof(Triple) / 2);
}

}  // namespace

Status ExternalSortToRun(TripleSpan source, RunOrder order,
                         size_t budget_bytes, const std::string& scratch_dir,
                         const std::string& out_path, MappedTripleRun* out) {
  const size_t fragment = FragmentCapacity(budget_bytes);
  if (source.size <= fragment) {
    std::vector<Triple> sorted(source.begin(), source.end());
    std::sort(sorted.begin(), sorted.end(),
              [order](const Triple& a, const Triple& b) {
                return RunLess(order, a, b);
              });
    RunWriter writer;
    HBOLD_RETURN_NOT_OK(writer.Open(out_path, order));
    for (const Triple& t : sorted) HBOLD_RETURN_NOT_OK(writer.Append(t));
    return writer.Finish(out);
  }
  std::vector<std::string> chunk_paths;
  std::vector<Triple> fragment_buf;
  fragment_buf.reserve(fragment);
  Status st = Status::OK();
  for (size_t i = 0; i < source.size && st.ok(); i += fragment) {
    const size_t n = std::min(fragment, source.size - i);
    fragment_buf.assign(source.data + i, source.data + i + n);
    std::sort(fragment_buf.begin(), fragment_buf.end(),
              [order](const Triple& a, const Triple& b) {
                return RunLess(order, a, b);
              });
    std::string path = scratch_dir + "/sort-" +
                       std::to_string(chunk_paths.size()) + ".chunk";
    st = WriteDeltaChunk(path, order, fragment_buf.data(), fragment_buf.size());
    if (st.ok()) chunk_paths.push_back(std::move(path));
  }
  fragment_buf = std::vector<Triple>();
  if (st.ok()) {
    std::vector<std::unique_ptr<DeltaChunkReader>> readers;
    for (const std::string& path : chunk_paths) {
      auto reader = std::make_unique<DeltaChunkReader>();
      st = reader->Open(path);
      if (!st.ok()) break;
      readers.push_back(std::move(reader));
    }
    if (st.ok()) {
      st = MergeChunksToRun(
          &readers,
          [order](const Triple& a, const Triple& b) {
            return RunLess(order, a, b);
          },
          order, out_path, out);
      for (const auto& reader : readers) {
        if (st.ok() && !reader->status().ok()) st = reader->status();
      }
    }
  }
  for (const std::string& path : chunk_paths) ::unlink(path.c_str());
  return st;
}

Status ExternalSortToRunBy(
    TripleSpan source,
    const std::function<bool(const Triple&, const Triple&)>& less,
    size_t budget_bytes, const std::string& scratch_dir,
    const std::string& out_path, MappedTripleRun* out) {
  const size_t fragment = FragmentCapacity(budget_bytes);
  if (source.size <= fragment) {
    std::vector<Triple> sorted(source.begin(), source.end());
    std::sort(sorted.begin(), sorted.end(), less);
    RunWriter writer;
    HBOLD_RETURN_NOT_OK(writer.Open(out_path, RunOrder::kSpo));
    for (const Triple& t : sorted) HBOLD_RETURN_NOT_OK(writer.Append(t));
    return writer.Finish(out);
  }
  std::vector<std::string> chunk_paths;
  std::vector<Triple> fragment_buf;
  fragment_buf.reserve(fragment);
  Status st = Status::OK();
  for (size_t i = 0; i < source.size && st.ok(); i += fragment) {
    const size_t n = std::min(fragment, source.size - i);
    fragment_buf.assign(source.data + i, source.data + i + n);
    std::sort(fragment_buf.begin(), fragment_buf.end(), less);
    std::string path = scratch_dir + "/sort-" +
                       std::to_string(chunk_paths.size()) + ".chunk";
    std::FILE* f = std::fopen(path.c_str(), "wb");
    if (f == nullptr) {
      st = ErrnoStatus("cannot open chunk", path);
      break;
    }
    if (std::fwrite(fragment_buf.data(), sizeof(Triple), fragment_buf.size(),
                    f) != fragment_buf.size()) {
      std::fclose(f);
      ::unlink(path.c_str());
      st = ErrnoStatus("chunk write failed for", path);
      break;
    }
    if (std::fclose(f) != 0) {
      ::unlink(path.c_str());
      st = ErrnoStatus("chunk close failed for", path);
      break;
    }
    chunk_paths.push_back(std::move(path));
  }
  fragment_buf = std::vector<Triple>();
  if (st.ok()) {
    std::vector<std::unique_ptr<RawChunkReader>> readers;
    for (const std::string& path : chunk_paths) {
      auto reader = std::make_unique<RawChunkReader>();
      st = reader->Open(path);
      if (!st.ok()) break;
      readers.push_back(std::move(reader));
    }
    if (st.ok()) {
      st = MergeChunksToRun(&readers, less, RunOrder::kSpo, out_path, out);
    }
  }
  for (const std::string& path : chunk_paths) ::unlink(path.c_str());
  return st;
}

}  // namespace hbold::rdf
