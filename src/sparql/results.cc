#include "sparql/results.h"

#include <algorithm>
#include <cstdlib>

namespace hbold::sparql {

ResultTable::ResultTable(std::vector<std::string> columns,
                         const std::vector<ColumnType>& types)
    : names_(std::move(columns)), columns_(names_.size()) {
  for (size_t i = 0; i < types.size() && i < columns_.size(); ++i) {
    if (types[i] == ColumnType::kInt) columns_[i] = IntCells{};
  }
}

int ResultTable::ColumnIndex(const std::string& name) const {
  for (size_t i = 0; i < names_.size(); ++i) {
    if (names_[i] == name) return static_cast<int>(i);
  }
  return -1;
}

int ResultTable::ColumnIndex(const std::string& name, ColumnType type) const {
  const int col = ColumnIndex(name);
  return col >= 0 && column_type(col) == type ? col : -1;
}

const rdf::Term* ResultTable::CellTerm(size_t row, size_t col,
                                       rdf::Term* scratch) const {
  if (column_type(col) == ColumnType::kTerm) return TermAt(row, col);
  *scratch = rdf::Term::IntLiteral(IntAt(row, col));
  return scratch;
}

std::optional<rdf::Term> ResultTable::Cell(size_t row,
                                           const std::string& column) const {
  const int col = ColumnIndex(column);
  if (col < 0 || row >= num_rows_) return std::nullopt;
  rdf::Term scratch;
  const rdf::Term* term = CellTerm(row, static_cast<size_t>(col), &scratch);
  return term != nullptr ? std::optional<rdf::Term>(*term) : std::nullopt;
}

std::optional<int64_t> ResultTable::ScalarInt(const std::string& column) const {
  const int col = ColumnIndex(column);
  if (col < 0 || num_rows_ == 0) return std::nullopt;
  if (column_type(col) == ColumnType::kInt) return IntAt(0, col);
  const rdf::Term* cell = TermAt(0, static_cast<size_t>(col));
  if (cell == nullptr || !cell->is_literal()) return std::nullopt;
  const std::string& lex = cell->lexical();
  char* end = nullptr;
  long long v = std::strtoll(lex.c_str(), &end, 10);
  if (end != lex.c_str() + lex.size() || lex.empty()) return std::nullopt;
  return v;
}

std::optional<bool> ResultTable::AskResult() const {
  if (names_.size() != 1 || names_[0] != "ask" || num_rows_ != 1) {
    return std::nullopt;
  }
  const rdf::Term* cell = TermAt(0, 0);
  if (cell == nullptr || !cell->is_literal()) return std::nullopt;
  if (cell->lexical() == "true") return true;
  if (cell->lexical() == "false") return false;
  return std::nullopt;
}

void ResultTable::Reserve(size_t rows) {
  for (Column& c : columns_) {
    std::visit([&](auto& cells) { cells.reserve(rows); }, c);
  }
}

size_t ResultTable::AppendRow() {
  for (Column& c : columns_) {
    std::visit([](auto& cells) { cells.emplace_back(); }, c);
  }
  return num_rows_++;
}

void ResultTable::Slice(size_t offset, size_t limit) {
  const size_t begin = std::min(offset, num_rows_);
  // Not `begin + limit`: the sum overflows for a LIMIT near SIZE_MAX.
  const size_t end = begin + std::min(limit, num_rows_ - begin);
  for (Column& c : columns_) {
    std::visit(
        [&](auto& cells) {
          cells.erase(cells.begin() + static_cast<ptrdiff_t>(end), cells.end());
          cells.erase(cells.begin(),
                      cells.begin() + static_cast<ptrdiff_t>(begin));
        },
        c);
  }
  num_rows_ = end - begin;
}

void ResultTable::Gather(const std::vector<size_t>& rows) {
  for (Column& c : columns_) {
    std::visit(
        [&](auto& cells) {
          std::remove_reference_t<decltype(cells)> out;
          out.reserve(rows.size());
          for (size_t r : rows) out.push_back(std::move(cells[r]));
          cells = std::move(out);
        },
        c);
  }
  num_rows_ = rows.size();
}

Json ResultTable::ToJson() const {
  Json head = Json::MakeObject();
  Json vars = Json::MakeArray();
  for (const std::string& c : names_) vars.Append(Json(c));
  head.Set("vars", std::move(vars));

  Json bindings = Json::MakeArray();
  rdf::Term scratch;
  for (size_t r = 0; r < num_rows_; ++r) {
    Json b = Json::MakeObject();
    for (size_t i = 0; i < names_.size(); ++i) {
      const rdf::Term* t = CellTerm(r, i, &scratch);
      if (t == nullptr) continue;
      Json cell = Json::MakeObject();
      switch (t->kind()) {
        case rdf::Term::Kind::kIri:
          cell.Set("type", "uri");
          break;
        case rdf::Term::Kind::kBlank:
          cell.Set("type", "bnode");
          break;
        case rdf::Term::Kind::kLiteral:
          cell.Set("type", "literal");
          if (!t->datatype().empty()) cell.Set("datatype", t->datatype());
          if (!t->lang().empty()) cell.Set("xml:lang", t->lang());
          break;
      }
      cell.Set("value", t->lexical());
      b.Set(names_[i], std::move(cell));
    }
    bindings.Append(std::move(b));
  }
  Json results = Json::MakeObject();
  results.Set("bindings", std::move(bindings));

  Json out = Json::MakeObject();
  out.Set("head", std::move(head));
  out.Set("results", std::move(results));
  return out;
}

namespace {
// RFC 4180: quote when the value contains comma, quote or newline;
// embedded quotes double.
std::string CsvEscape(const std::string& s) {
  if (s.find_first_of(",\"\n\r") == std::string::npos) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += '"';
    out += c;
  }
  return out + '"';
}
}  // namespace

std::string ResultTable::ToText(bool csv) const {
  const char sep = csv ? ',' : '\t';
  const char* eol = csv ? "\r\n" : "\n";
  std::string out;
  for (size_t i = 0; i < names_.size(); ++i) {
    if (i > 0) out += sep;
    out += csv ? CsvEscape(names_[i]) : '?' + names_[i];
  }
  out += eol;
  rdf::Term scratch;
  for (size_t r = 0; r < num_rows_; ++r) {
    for (size_t i = 0; i < names_.size(); ++i) {
      if (i > 0) out += sep;
      const rdf::Term* t = CellTerm(r, i, &scratch);
      if (t != nullptr) out += csv ? CsvEscape(t->lexical()) : t->ToNTriples();
    }
    out += eol;
  }
  return out;
}

}  // namespace hbold::sparql
