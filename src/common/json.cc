#include "common/json.h"

#include <cmath>
#include <cstdio>
#include <cstdlib>

namespace hbold {

namespace {

// Serializes a double the way JSON expects: integers without a fraction,
// otherwise shortest round-trip-ish representation.
void AppendNumber(std::string* out, double d) {
  if (std::isfinite(d) && d == std::floor(d) && std::fabs(d) < 1e15) {
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%lld", static_cast<long long>(d));
    out->append(buf);
  } else if (std::isfinite(d)) {
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", d);
    out->append(buf);
  } else {
    out->append("null");  // JSON has no Inf/NaN.
  }
}

void AppendEscaped(std::string* out, const std::string& s) {
  out->push_back('"');
  for (unsigned char c : s) {
    switch (c) {
      case '"':
        out->append("\\\"");
        break;
      case '\\':
        out->append("\\\\");
        break;
      case '\n':
        out->append("\\n");
        break;
      case '\r':
        out->append("\\r");
        break;
      case '\t':
        out->append("\\t");
        break;
      case '\b':
        out->append("\\b");
        break;
      case '\f':
        out->append("\\f");
        break;
      default:
        if (c < 0x20) {
          char buf[8];
          std::snprintf(buf, sizeof(buf), "\\u%04x", c);
          out->append(buf);
        } else {
          out->push_back(static_cast<char>(c));
        }
    }
  }
  out->push_back('"');
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
      obj[std::move(key)] = std::move(value);
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

  std::string_view text_;
  size_t pos_ = 0;
};

}  // namespace

const Json* Json::Find(std::string_view key) const {
  if (!is_object()) return nullptr;
  auto it = obj_.find(std::string(key));
  if (it == obj_.end()) return nullptr;
  return &it->second;
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
  obj_[std::move(key)] = std::move(value);
  return *this;
}

Json& Json::Append(Json value) {
  arr_.push_back(std::move(value));
  return *this;
}

void Json::DumpTo(std::string* out, int indent, int depth) const {
  auto newline = [&](int d) {
    if (indent > 0) {
      out->push_back('\n');
      out->append(static_cast<size_t>(indent * d), ' ');
    }
  };
  switch (type_) {
    case Type::kNull:
      out->append("null");
      break;
    case Type::kBool:
      out->append(bool_ ? "true" : "false");
      break;
    case Type::kNumber:
      AppendNumber(out, num_);
      break;
    case Type::kString:
      AppendEscaped(out, str_);
      break;
    case Type::kArray: {
      out->push_back('[');
      bool first = true;
      for (const Json& v : arr_) {
        if (!first) out->push_back(',');
        first = false;
        newline(depth + 1);
        v.DumpTo(out, indent, depth + 1);
      }
      if (!arr_.empty()) newline(depth);
      out->push_back(']');
      break;
    }
    case Type::kObject: {
      out->push_back('{');
      bool first = true;
      for (const auto& [k, v] : obj_) {
        if (!first) out->push_back(',');
        first = false;
        newline(depth + 1);
        AppendEscaped(out, k);
        out->push_back(':');
        if (indent > 0) out->push_back(' ');
        v.DumpTo(out, indent, depth + 1);
      }
      if (!obj_.empty()) newline(depth);
      out->push_back('}');
      break;
    }
  }
}

std::string Json::Dump(int indent) const {
  std::string out;
  DumpTo(&out, indent, 0);
  return out;
}

Result<Json> Json::Parse(std::string_view text) {
  Parser p(text);
  return p.Parse();
}

bool operator==(const Json& a, const Json& b) {
  if (a.type_ != b.type_) return false;
  switch (a.type_) {
    case Json::Type::kNull:
      return true;
    case Json::Type::kBool:
      return a.bool_ == b.bool_;
    case Json::Type::kNumber:
      return a.num_ == b.num_;
    case Json::Type::kString:
      return a.str_ == b.str_;
    case Json::Type::kArray:
      return a.arr_ == b.arr_;
    case Json::Type::kObject:
      return a.obj_ == b.obj_;
  }
  return false;
}

}  // namespace hbold
