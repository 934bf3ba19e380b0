#include "storage/csv.h"

#include <fstream>
#include <sstream>

#include "common/wal.h"

namespace quarry::storage {

namespace {

bool NeedsQuoting(const std::string& field, char sep) {
  return field.find(sep) != std::string::npos ||
         field.find('"') != std::string::npos ||
         field.find('\n') != std::string::npos ||
         field.find('\r') != std::string::npos;
}

void AppendField(const std::string& field, char sep, std::string* out) {
  if (!NeedsQuoting(field, sep)) {
    out->append(field);
    return;
  }
  out->push_back('"');
  for (char c : field) {
    if (c == '"') out->push_back('"');
    out->push_back(c);
  }
  out->push_back('"');
}

/// Splits one CSV record respecting quoting; advances *pos past the record
/// terminator.
std::vector<std::string> ParseRecord(const std::string& text, size_t* pos,
                                     char sep) {
  std::vector<std::string> fields;
  std::string field;
  bool in_quotes = false;
  size_t i = *pos;
  for (; i < text.size(); ++i) {
    char c = text[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < text.size() && text[i + 1] == '"') {
          field.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        field.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == sep) {
      fields.push_back(std::move(field));
      field.clear();
    } else if (c == '\n') {
      ++i;
      break;
    } else if (c == '\r') {
      // Swallow; \r\n handled by the \n branch next iteration.
    } else {
      field.push_back(c);
    }
  }
  fields.push_back(std::move(field));
  *pos = i;
  return fields;
}

}  // namespace

std::string TableToCsv(const Table& table, char sep) {
  std::string out;
  const auto& columns = table.schema().columns();
  for (size_t i = 0; i < columns.size(); ++i) {
    if (i > 0) out.push_back(sep);
    AppendField(columns[i].name, sep, &out);
  }
  out.push_back('\n');
  for (const Chunk& chunk : table.ScanChunks(Table::kChunkRows)) {
    for (size_t r = 0; r < chunk.num_rows(); ++r) {
      for (size_t i = 0; i < chunk.num_columns(); ++i) {
        if (i > 0) out.push_back(sep);
        const Value cell = chunk.ValueAt(i, r);
        if (!cell.is_null()) AppendField(cell.ToString(), sep, &out);
      }
      out.push_back('\n');
    }
  }
  return out;
}

Status LoadCsvInto(Table* table, const std::string& csv, char sep) {
  size_t pos = 0;
  if (csv.empty()) return Status::ParseError("empty CSV input");
  std::vector<std::string> header = ParseRecord(csv, &pos, sep);
  const auto& columns = table->schema().columns();
  if (header.size() != columns.size()) {
    return Status::ParseError("CSV header arity " +
                              std::to_string(header.size()) +
                              " != schema arity " +
                              std::to_string(columns.size()));
  }
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] != columns[i].name) {
      return Status::ParseError("CSV header '" + header[i] +
                                "' != column '" + columns[i].name + "'");
    }
  }
  int line = 1;
  while (pos < csv.size()) {
    std::vector<std::string> fields = ParseRecord(csv, &pos, sep);
    ++line;
    if (fields.size() == 1 && fields[0].empty()) continue;  // blank line
    if (fields.size() != columns.size()) {
      return Status::ParseError("CSV record arity mismatch at line " +
                                std::to_string(line));
    }
    Row row;
    row.reserve(fields.size());
    for (size_t i = 0; i < fields.size(); ++i) {
      if (fields[i].empty()) {
        row.push_back(Value::Null());
        continue;
      }
      auto v = Value::Parse(fields[i], columns[i].type);
      if (!v.ok()) {
        return v.status().WithContext("CSV line " + std::to_string(line));
      }
      row.push_back(std::move(v).value());
    }
    QUARRY_RETURN_NOT_OK(table->Insert(std::move(row)));
  }
  return Status::OK();
}

Status WriteCsvFile(const Table& table, const std::string& path, char sep) {
  return WriteFile(path, TableToCsv(table, sep));
}

Result<std::string> ReadFile(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) return Status::NotFound("file '" + path + "'");
  std::ostringstream ss;
  ss << in.rdbuf();
  return ss.str();
}

Status WriteFile(const std::string& path, const std::string& content) {
  // Atomic (tmp + fsync + rename): a crash mid-export leaves either the
  // previous file or the complete new one, never a torn prefix.
  return wal::AtomicWriteFile(path, content);
}

}  // namespace quarry::storage
