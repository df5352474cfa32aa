#include "common/json.h"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstdlib>

namespace hbold {

namespace {

// Serializes a double the way JSON expects: integers below 1e15 without a
// fraction (the bytes of "%lld"), other finite values with 17 significant
// digits (the bytes of "%.17g"), and NaN/Inf as null.
void AppendNumber(std::string* out, double d) {
  if (!std::isfinite(d)) {
    out->append("null");  // JSON has no Inf/NaN.
    return;
  }
  char buf[32];
  std::to_chars_result r;
  if (d == std::floor(d) && std::fabs(d) < 1e15) {
    r = std::to_chars(buf, buf + sizeof(buf), static_cast<long long>(d));
  } else {
    r = std::to_chars(buf, buf + sizeof(buf), d, std::chars_format::general,
                      17);
  }
  out->append(buf, r.ptr);
}

// Quotes and escapes `s`, copying each run of characters that need no
// escape in one append.
void AppendEscaped(std::string* out, std::string_view s) {
  static constexpr char kHex[] = "0123456789abcdef";
  out->push_back('"');
  size_t run = 0;
  for (size_t i = 0; i < s.size(); ++i) {
    const unsigned char c = static_cast<unsigned char>(s[i]);
    const char* escape = nullptr;
    switch (c) {
      case '"':
        escape = "\\\"";
        break;
      case '\\':
        escape = "\\\\";
        break;
      case '\n':
        escape = "\\n";
        break;
      case '\r':
        escape = "\\r";
        break;
      case '\t':
        escape = "\\t";
        break;
      case '\b':
        escape = "\\b";
        break;
      case '\f':
        escape = "\\f";
        break;
      default:
        if (c >= 0x20) continue;
    }
    out->append(s.data() + run, i - run);
    run = i + 1;
    if (escape != nullptr) {
      out->append(escape);
    } else {
      const char u[6] = {'\\', 'u', '0', '0', kHex[c >> 4], kHex[c & 0xF]};
      out->append(u, sizeof(u));
    }
  }
  out->append(s.data() + run, s.size() - run);
  out->push_back('"');
}

bool KeyLess(const std::pair<std::string, Json>& a,
             const std::pair<std::string, Json>& b) {
  return a.first < b.first;
}

// The first pair of a sorted object whose key is not less than `key`.
template <typename ObjectT>
auto KeyLowerBound(ObjectT& obj, std::string_view key) {
  return std::lower_bound(obj.begin(), obj.end(), key,
                          [](const auto& kv, std::string_view k) {
                            return std::string_view(kv.first) < k;
                          });
}

class Parser {
 public:
  explicit Parser(std::string_view text) : text_(text) {}

  Result<Json> Parse() {
    SkipWs();
    Json value;
    Status st = ParseValue(&value);
    if (!st.ok()) return st;
    SkipWs();
    if (pos_ != text_.size()) {
      return Status::ParseError("trailing characters at offset " +
                                std::to_string(pos_));
    }
    return value;
  }

 private:
  Status ParseValue(Json* out) {
    if (pos_ >= text_.size()) return Err("unexpected end of input");
    char c = text_[pos_];
    switch (c) {
      case '{':
        return ParseObject(out);
      case '[':
        return ParseArray(out);
      case '"': {
        std::string s;
        Status st = ParseString(&s);
        if (!st.ok()) return st;
        *out = Json(std::move(s));
        return Status::OK();
      }
      case 't':
        return ParseLiteral("true", Json(true), out);
      case 'f':
        return ParseLiteral("false", Json(false), out);
      case 'n':
        return ParseLiteral("null", Json(nullptr), out);
      default:
        return ParseNumber(out);
    }
  }

  Status ParseLiteral(std::string_view lit, Json value, Json* out) {
    if (text_.substr(pos_, lit.size()) != lit) {
      return Err("invalid literal");
    }
    pos_ += lit.size();
    *out = std::move(value);
    return Status::OK();
  }

  Status ParseNumber(Json* out) {
    size_t start = pos_;
    if (pos_ < text_.size() && text_[pos_] == '-') ++pos_;
    while (pos_ < text_.size() &&
           (std::isdigit(static_cast<unsigned char>(text_[pos_])) ||
            text_[pos_] == '.' || text_[pos_] == 'e' || text_[pos_] == 'E' ||
            text_[pos_] == '+' || text_[pos_] == '-')) {
      ++pos_;
    }
    if (pos_ == start) return Err("invalid number");
    std::string num(text_.substr(start, pos_ - start));
    char* end = nullptr;
    double d = std::strtod(num.c_str(), &end);
    if (end != num.c_str() + num.size()) return Err("invalid number");
    *out = Json(d);
    return Status::OK();
  }

  Status ParseString(std::string* out) {
    if (pos_ >= text_.size() || text_[pos_] != '"') {
      return Err("expected string");
    }
    ++pos_;
    std::string s;
    while (true) {
      if (pos_ >= text_.size()) return Err("unterminated string");
      char c = text_[pos_++];
      if (c == '"') break;
      if (c == '\\') {
        if (pos_ >= text_.size()) return Err("bad escape");
        char e = text_[pos_++];
        switch (e) {
          case '"':
            s += '"';
            break;
          case '\\':
            s += '\\';
            break;
          case '/':
            s += '/';
            break;
          case 'n':
            s += '\n';
            break;
          case 't':
            s += '\t';
            break;
          case 'r':
            s += '\r';
            break;
          case 'b':
            s += '\b';
            break;
          case 'f':
            s += '\f';
            break;
          case 'u': {
            unsigned cp = 0;
            Status st = ParseHex4(&cp);
            if (!st.ok()) return st;
            // Combine surrogate pairs.
            if (cp >= 0xD800 && cp <= 0xDBFF && pos_ + 1 < text_.size() &&
                text_[pos_] == '\\' && text_[pos_ + 1] == 'u') {
              pos_ += 2;
              unsigned lo = 0;
              st = ParseHex4(&lo);
              if (!st.ok()) return st;
              if (lo >= 0xDC00 && lo <= 0xDFFF) {
                cp = 0x10000 + ((cp - 0xD800) << 10) + (lo - 0xDC00);
              } else {
                return Err("invalid surrogate pair");
              }
            }
            AppendUtf8(&s, cp);
            break;
          }
          default:
            return Err("bad escape");
        }
      } else {
        s += c;
      }
    }
    *out = std::move(s);
    return Status::OK();
  }

  Status ParseHex4(unsigned* out) {
    if (pos_ + 4 > text_.size()) return Err("bad \\u escape");
    unsigned v = 0;
    for (int i = 0; i < 4; ++i) {
      char c = text_[pos_++];
      v <<= 4;
      if (c >= '0' && c <= '9') {
        v |= static_cast<unsigned>(c - '0');
      } else if (c >= 'a' && c <= 'f') {
        v |= static_cast<unsigned>(c - 'a' + 10);
      } else if (c >= 'A' && c <= 'F') {
        v |= static_cast<unsigned>(c - 'A' + 10);
      } else {
        return Err("bad \\u escape");
      }
    }
    *out = v;
    return Status::OK();
  }

  static void AppendUtf8(std::string* s, unsigned cp) {
    if (cp < 0x80) {
      s->push_back(static_cast<char>(cp));
    } else if (cp < 0x800) {
      s->push_back(static_cast<char>(0xC0 | (cp >> 6)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else if (cp < 0x10000) {
      s->push_back(static_cast<char>(0xE0 | (cp >> 12)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    } else {
      s->push_back(static_cast<char>(0xF0 | (cp >> 18)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 12) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | ((cp >> 6) & 0x3F)));
      s->push_back(static_cast<char>(0x80 | (cp & 0x3F)));
    }
  }

  Status ParseObject(Json* out) {
    DepthGuard guard(this);
    if (depth_ > kMaxDepth) return Err("nesting too deep");
    ++pos_;  // '{'
    Json::Object obj;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == '}') {
      ++pos_;
      *out = Json(std::move(obj));
      return Status::OK();
    }
    while (true) {
      SkipWs();
      std::string key;
      Status st = ParseString(&key);
      if (!st.ok()) return st;
      SkipWs();
      if (pos_ >= text_.size() || text_[pos_] != ':') return Err("expected ':'");
      ++pos_;
      SkipWs();
      Json value;
      st = ParseValue(&value);
      if (!st.ok()) return st;
      obj.emplace_back(std::move(key), std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Err("unterminated object");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == '}') {
        ++pos_;
        break;
      }
      return Err("expected ',' or '}'");
    }
    *out = Json(std::move(obj));
    return Status::OK();
  }

  Status ParseArray(Json* out) {
    DepthGuard guard(this);
    if (depth_ > kMaxDepth) return Err("nesting too deep");
    ++pos_;  // '['
    Json::Array arr;
    SkipWs();
    if (pos_ < text_.size() && text_[pos_] == ']') {
      ++pos_;
      *out = Json(std::move(arr));
      return Status::OK();
    }
    while (true) {
      SkipWs();
      Json value;
      Status st = ParseValue(&value);
      if (!st.ok()) return st;
      arr.push_back(std::move(value));
      SkipWs();
      if (pos_ >= text_.size()) return Err("unterminated array");
      if (text_[pos_] == ',') {
        ++pos_;
        continue;
      }
      if (text_[pos_] == ']') {
        ++pos_;
        break;
      }
      return Err("expected ',' or ']'");
    }
    *out = Json(std::move(arr));
    return Status::OK();
  }

  void SkipWs() {
    while (pos_ < text_.size() &&
           std::isspace(static_cast<unsigned char>(text_[pos_]))) {
      ++pos_;
    }
  }

  Status Err(std::string msg) {
    return Status::ParseError(msg + " at offset " + std::to_string(pos_));
  }

  // Arrays and objects nest by recursion; the cap keeps hostile input
  // from exhausting the stack (and the recursive destructor after it).
  static constexpr int kMaxDepth = 512;
  struct DepthGuard {
    explicit DepthGuard(Parser* p) : parser(p) { ++parser->depth_; }
    ~DepthGuard() { --parser->depth_; }
    Parser* parser;
  };

  std::string_view text_;
  size_t pos_ = 0;
  int depth_ = 0;
};

}  // namespace

Json::Json(Object o) {
  const bool normalized =
      std::adjacent_find(o.begin(), o.end(),
                         [](const auto& a, const auto& b) {
                           return !(a.first < b.first);
                         }) == o.end();
  if (!normalized) {
    // Stable, so equal keys keep their order and the last one survives.
    std::stable_sort(o.begin(), o.end(), KeyLess);
    auto kept = o.begin();
    for (auto it = o.begin(); it != o.end(); ++it) {
      if (it + 1 != o.end() && (it + 1)->first == it->first) continue;
      if (kept != it) *kept = std::move(*it);
      ++kept;
    }
    o.erase(kept, o.end());
  }
  value_ = std::move(o);
}

bool Json::as_bool() const {
  const bool* b = std::get_if<bool>(&value_);
  return b != nullptr && *b;
}

double Json::as_number() const {
  const double* d = std::get_if<double>(&value_);
  return d == nullptr ? 0 : *d;
}

const std::string& Json::as_string() const {
  static const std::string kEmpty;
  const std::string* s = std::get_if<std::string>(&value_);
  return s == nullptr ? kEmpty : *s;
}

const Json::Array& Json::as_array() const {
  static const Array kEmpty;
  const Array* a = std::get_if<Array>(&value_);
  return a == nullptr ? kEmpty : *a;
}

const Json::Object& Json::as_object() const {
  static const Object kEmpty;
  const Object* o = std::get_if<Object>(&value_);
  return o == nullptr ? kEmpty : *o;
}

const Json* Json::Find(std::string_view key) const {
  const Object* obj = std::get_if<Object>(&value_);
  if (obj == nullptr) return nullptr;
  auto it = KeyLowerBound(*obj, key);
  return it == obj->end() || it->first != key ? nullptr : &it->second;
}

std::string Json::GetString(std::string_view key,
                            std::string default_value) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_string()) return default_value;
  return v->as_string();
}

double Json::GetNumber(std::string_view key, double default_value) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_number()) return default_value;
  return v->as_number();
}

int64_t Json::GetInt(std::string_view key, int64_t default_value) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_number()) return default_value;
  return v->as_int();
}

bool Json::GetBool(std::string_view key, bool default_value) const {
  const Json* v = Find(key);
  if (v == nullptr || !v->is_bool()) return default_value;
  return v->as_bool();
}

Json& Json::Set(std::string key, Json value) {
  if (!is_object()) value_ = Object{};
  Object& obj = std::get<Object>(value_);
  if (obj.empty() || obj.back().first < key) {
    obj.emplace_back(std::move(key), std::move(value));
    return *this;
  }
  auto it = KeyLowerBound(obj, key);
  if (it != obj.end() && it->first == key) {
    it->second = std::move(value);
  } else {
    obj.emplace(it, std::move(key), std::move(value));
  }
  return *this;
}

Json& Json::Append(Json value) {
  if (!is_array()) value_ = Array{};
  std::get<Array>(value_).push_back(std::move(value));
  return *this;
}

void Json::DumpAt(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type()) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(std::get<bool>(value_) ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(out, std::get<double>(value_));
      break;
    case Type::kString:
      AppendEscaped(out, std::get<std::string>(value_));
      break;
    case Type::kArray: {
      const Array& arr = std::get<Array>(value_);
      out->push_back('[');
      bool first = true;
      for (const Json& v : arr) {
        if (!first) out->push_back(',');
        first = false;
        newline(depth + 1);
        v.DumpAt(out, indent, depth + 1);
      }
      if (!arr.empty()) newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      const Object& obj = std::get<Object>(value_);
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj) {
        if (!first) out->push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(out, k);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        v.DumpAt(out, indent, depth + 1);
      }
      if (!obj.empty()) newline(depth);
      out->push_back('}');
      break;
    }
  }
}

void Json::DumpTo(std::string* out, int indent) const {
  DumpAt(out, indent, 0);
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpAt(&out, indent, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  Parser p(text);
  return p.Parse();
}

}  // namespace hbold
