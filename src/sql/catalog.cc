#include "sql/catalog.h"

#include <cinttypes>
#include <cstdio>
#include <sstream>

namespace vecdb::sql {

namespace {
constexpr char kCatalogName[] = "/CATALOG";
constexpr char kMagic[] = "vecdb-catalog";
/// Version 2 stores dead heap positions ("dead" lines); version 1 stored
/// deleted row ids ("tombstones" lines) and is still read.
constexpr int kVersion = 2;

/// Doubles round-trip through %.17g exactly (index options like
/// sample_ratio=0.01 must survive a reopen bit-identically, or the rebuilt
/// index would differ from the one the user created).
std::string FormatDouble(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}
}  // namespace

Status SaveCatalog(pgstub::Vfs* vfs, const std::string& dir,
                   const Catalog& catalog) {
  std::ostringstream out;
  out << kMagic << ' ' << kVersion << '\n';
  for (const auto& [name, table] : catalog.tables) {
    const CreateTableStmt& s = table.schema;
    out << "table " << name << ' ' << s.id_column << ' ' << s.vec_column
        << ' ' << s.dim << ' ' << s.attr_columns.size();
    for (const auto& attr : s.attr_columns) out << ' ' << attr;
    out << '\n';
    out << "rows " << name << ' ' << table.rows_at_checkpoint << '\n';
    out << "dead " << name << ' ' << table.dead_positions.size();
    for (uint64_t pos : table.dead_positions) out << ' ' << pos;
    out << '\n';
  }
  for (const auto& [name, index] : catalog.indexes) {
    const CreateIndexStmt& d = index.def;
    out << "index " << name << ' ' << d.table << ' ' << d.method << ' '
        << d.column << ' ' << d.engine << ' ' << (index.has_snapshot ? 1 : 0)
        << ' ' << index.rows_at_snapshot << ' ' << d.options.size();
    for (const auto& [key, value] : d.options) {
      out << ' ' << key << ' ' << FormatDouble(value);
    }
    out << '\n';
  }
  const std::string text = out.str();
  const std::string path = dir + kCatalogName;
  const std::string tmp = path + ".tmp";
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<pgstub::VfsFile> f,
                         vfs->Open(tmp, /*create=*/true));
  VECDB_RETURN_NOT_OK(f->Truncate(0));
  VECDB_RETURN_NOT_OK(f->WriteAt(0, text.data(), text.size()));
  VECDB_RETURN_NOT_OK(f->Sync());
  f.reset();
  return vfs->Rename(tmp, path);
}

Result<Catalog> LoadCatalog(pgstub::Vfs* vfs, const std::string& dir) {
  const std::string path = dir + kCatalogName;
  VECDB_ASSIGN_OR_RETURN(bool exists, vfs->Exists(path));
  if (!exists) return Status::NotFound("no catalog in " + dir);
  VECDB_ASSIGN_OR_RETURN(std::unique_ptr<pgstub::VfsFile> f,
                         vfs->Open(path, /*create=*/false));
  VECDB_ASSIGN_OR_RETURN(uint64_t size, f->Size());
  std::string text(size, '\0');
  VECDB_ASSIGN_OR_RETURN(size_t got, f->ReadAt(0, text.data(), text.size()));
  if (got != size) return Status::IOError("catalog: short read");
  f.reset();

  std::istringstream in(text);
  std::string magic;
  int version = 0;
  if (!(in >> magic >> version) || magic != kMagic || version < 1 ||
      version > kVersion) {
    return Status::Corruption("catalog: bad header in " + path);
  }
  Catalog catalog;
  std::string key;
  while (in >> key) {
    if (key == "table") {
      CatalogTable table;
      size_t nattrs = 0;
      if (!(in >> table.schema.table >> table.schema.id_column >>
            table.schema.vec_column >> table.schema.dim >> nattrs)) {
        return Status::Corruption("catalog: bad table entry");
      }
      table.schema.attr_columns.resize(nattrs);
      for (auto& attr : table.schema.attr_columns) {
        if (!(in >> attr)) return Status::Corruption("catalog: bad attr");
      }
      catalog.tables[table.schema.table] = std::move(table);
    } else if (key == "rows") {
      std::string name;
      uint64_t rows = 0;
      if (!(in >> name >> rows) || catalog.tables.count(name) == 0) {
        return Status::Corruption("catalog: bad rows entry");
      }
      catalog.tables[name].rows_at_checkpoint = rows;
    } else if (key == (version == 1 ? "tombstones" : "dead")) {
      // Version 1 listed deleted row ids, version 2 dead heap positions.
      std::string name;
      size_t count = 0;
      if (!(in >> name >> count) || catalog.tables.count(name) == 0) {
        return Status::Corruption("catalog: bad " + key + " entry");
      }
      CatalogTable& table = catalog.tables[name];
      for (size_t i = 0; i < count; ++i) {
        int64_t value = 0;
        if (!(in >> value)) return Status::Corruption("catalog: bad " + key);
        if (version == 1) {
          table.dead_ids.push_back(value);
        } else {
          table.dead_positions.push_back(static_cast<uint64_t>(value));
        }
      }
    } else if (key == "index") {
      CatalogIndex index;
      int has_snapshot = 0;
      size_t nopts = 0;
      if (!(in >> index.def.index >> index.def.table >> index.def.method >>
            index.def.column >> index.def.engine >> has_snapshot >>
            index.rows_at_snapshot >> nopts)) {
        return Status::Corruption("catalog: bad index entry");
      }
      index.has_snapshot = has_snapshot != 0;
      for (size_t i = 0; i < nopts; ++i) {
        std::string opt;
        double value = 0;
        if (!(in >> opt >> value)) {
          return Status::Corruption("catalog: bad index option");
        }
        index.def.options[opt] = value;
      }
      catalog.indexes[index.def.index] = std::move(index);
    } else {
      return Status::Corruption("catalog: unknown entry '" + key + "'");
    }
  }
  return catalog;
}

}  // namespace vecdb::sql
