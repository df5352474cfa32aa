#ifndef HBOLD_SPARQL_RESULTS_H_
#define HBOLD_SPARQL_RESULTS_H_

#include <cstdint>
#include <optional>
#include <string>
#include <variant>
#include <vector>

#include "common/json.h"
#include "rdf/term.h"

namespace hbold::sparql {

/// A solution sequence, stored column by column. Each column has a fixed
/// cell type: a term column holds optional terms (a missing OPTIONAL
/// binding is an absent cell); an integer column holds the int64 value of
/// a COUNT aggregate, serialized as an xsd:integer literal.
///
/// Readers resolve a column index once and read cells through TermAt /
/// IntAt, which copy nothing.
class ResultTable {
 public:
  enum class ColumnType : uint8_t { kTerm, kInt };

  ResultTable() = default;
  /// `types` parallels `columns`; a column without a type holds terms.
  explicit ResultTable(std::vector<std::string> columns,
                       const std::vector<ColumnType>& types = {});

  const std::vector<std::string>& columns() const { return names_; }
  size_t num_rows() const { return num_rows_; }
  size_t num_columns() const { return names_.size(); }
  bool empty() const { return num_rows_ == 0; }
  ColumnType column_type(size_t col) const {
    return static_cast<ColumnType>(columns_[col].index());
  }

  /// Index of a column by name, or -1.
  int ColumnIndex(const std::string& name) const;
  /// Index of the column `name` holding `type` cells, or -1.
  int ColumnIndex(const std::string& name, ColumnType type) const;

  /// The term in cell (row, col); null when the binding is absent or the
  /// column holds integers. Precondition: row < num_rows, col < num_columns.
  const rdf::Term* TermAt(size_t row, size_t col) const {
    const auto* cells = std::get_if<TermCells>(&columns_[col]);
    return cells != nullptr && (*cells)[row].has_value() ? &*(*cells)[row]
                                                         : nullptr;
  }
  /// The value in cell (row, col) of an integer column.
  int64_t IntAt(size_t row, size_t col) const {
    return (*std::get_if<IntCells>(&columns_[col]))[row];
  }

  /// Copy of a cell by column name, an integer cell as its xsd:integer
  /// literal; nullopt when row/column is out of range or the binding is
  /// absent. For tests and one-off reads; loops use the view accessors.
  std::optional<rdf::Term> Cell(size_t row, const std::string& column) const;

  /// First row's value in `column` as an integer — the common shape of
  /// COUNT query results. A term column's cell must be a literal whose
  /// lexical form is a decimal integer. Returns nullopt when absent or
  /// non-numeric.
  std::optional<int64_t> ScalarInt(const std::string& column) const;

  /// Decodes the result of an ASK query (single "ask" boolean cell);
  /// nullopt when this is not an ASK result table.
  std::optional<bool> AskResult() const;

  /// Reserves room for `rows` rows in every column.
  void Reserve(size_t rows);
  /// Appends a row of absent (term) and zero (integer) cells; returns its
  /// index. Fill it with SetTerm / SetInt.
  size_t AppendRow();
  void SetTerm(size_t row, size_t col, rdf::Term term) {
    std::get<TermCells>(columns_[col])[row] = std::move(term);
  }
  void SetInt(size_t row, size_t col, int64_t value) {
    std::get<IntCells>(columns_[col])[row] = value;
  }

  /// Keeps rows [offset, offset + limit) (saturating), erasing the rest.
  void Slice(size_t offset, size_t limit);
  /// Row i becomes the former row `rows[i]`; rows not listed are dropped.
  /// Cells move, so `rows` must not repeat an index.
  void Gather(const std::vector<size_t>& rows);

  /// Same columns, column types, rows and cells.
  friend bool operator==(const ResultTable& a, const ResultTable& b) {
    return a.names_ == b.names_ && a.num_rows_ == b.num_rows_ &&
           a.columns_ == b.columns_;
  }
  friend bool operator!=(const ResultTable& a, const ResultTable& b) {
    return !(a == b);
  }

  /// SPARQL-JSON-results-like serialization (head/results/bindings).
  hbold::Json ToJson() const;

  /// Tab-separated text form for logs and examples.
  std::string ToTsv() const { return ToText(false); }

  /// SPARQL-results-CSV form (RFC 4180 quoting, header row of variable
  /// names, cell values are plain lexical forms as the CSV results spec
  /// prescribes).
  std::string ToCsv() const { return ToText(true); }

 private:
  // Alternative order matches ColumnType.
  using TermCells = std::vector<std::optional<rdf::Term>>;
  using IntCells = std::vector<int64_t>;
  using Column = std::variant<TermCells, IntCells>;

  /// Cell (row, col) as a term: a term cell by pointer (null when absent),
  /// an integer cell formatted into `scratch`.
  const rdf::Term* CellTerm(size_t row, size_t col, rdf::Term* scratch) const;
  std::string ToText(bool csv) const;

  std::vector<std::string> names_;
  std::vector<Column> columns_;
  size_t num_rows_ = 0;
};

}  // namespace hbold::sparql

#endif  // HBOLD_SPARQL_RESULTS_H_
