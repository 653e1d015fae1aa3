#include "common/serialize.h"

#include <unistd.h>

#include <utility>

namespace vecdb {

Result<BinaryWriter> BinaryWriter::Open(const std::string& path,
                                        uint32_t magic, uint32_t version) {
  std::FILE* f = std::fopen(path.c_str(), "wb");
  if (f == nullptr) return Status::IOError("cannot create " + path);
  BinaryWriter writer(f);
  VECDB_RETURN_NOT_OK(writer.Write(magic));
  VECDB_RETURN_NOT_OK(writer.Write(version));
  return writer;
}

BinaryWriter::~BinaryWriter() {
  if (file_ != nullptr) std::fclose(file_);
}

BinaryWriter::BinaryWriter(BinaryWriter&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)) {}

Status BinaryWriter::WriteBytes(const void* data, size_t len) {
  if (file_ == nullptr) return Status::InvalidArgument("writer closed");
  if (len == 0) return Status::OK();
  if (std::fwrite(data, 1, len, file_) != len) {
    return Status::IOError("short write");
  }
  return Status::OK();
}

Status BinaryWriter::WriteFloats(const AlignedFloats& values) {
  VECDB_RETURN_NOT_OK(Write<uint64_t>(values.size()));
  return WriteBytes(values.data(), values.size() * sizeof(float));
}

Status BinaryWriter::WriteString(const std::string& value) {
  VECDB_RETURN_NOT_OK(Write<uint64_t>(value.size()));
  return WriteBytes(value.data(), value.size());
}

Status BinaryWriter::Close() {
  if (file_ == nullptr) return Status::OK();
  // A checkpoint renames the file into place and then commits a catalog
  // that names it, so its bytes must reach storage first.
  const bool synced =
      std::fflush(file_) == 0 && ::fsync(::fileno(file_)) == 0;
  const int rc = std::fclose(file_);
  file_ = nullptr;
  if (!synced) return Status::IOError("sync failed");
  if (rc != 0) return Status::IOError("close failed");
  return Status::OK();
}

Result<BinaryReader> BinaryReader::Open(const std::string& path,
                                        uint32_t magic,
                                        uint32_t expected_version) {
  uint32_t found = 0;
  return Open(path, magic, expected_version, expected_version, &found);
}

Result<BinaryReader> BinaryReader::Open(const std::string& path,
                                        uint32_t magic, uint32_t min_version,
                                        uint32_t max_version,
                                        uint32_t* found_version) {
  std::FILE* f = std::fopen(path.c_str(), "rb");
  if (f == nullptr) return Status::IOError("cannot open " + path);
  BinaryReader reader(f);
  uint32_t got_magic = 0, got_version = 0;
  VECDB_RETURN_NOT_OK(reader.Read(&got_magic));
  VECDB_RETURN_NOT_OK(reader.Read(&got_version));
  if (got_magic != magic) {
    return Status::Corruption(path + ": bad magic");
  }
  if (got_version < min_version || got_version > max_version) {
    return Status::NotSupported(
        path + ": version " + std::to_string(got_version) + " outside [" +
        std::to_string(min_version) + ", " + std::to_string(max_version) +
        "]");
  }
  *found_version = got_version;
  return reader;
}

BinaryReader::~BinaryReader() {
  if (file_ != nullptr) std::fclose(file_);
}

BinaryReader::BinaryReader(BinaryReader&& other) noexcept
    : file_(std::exchange(other.file_, nullptr)) {}

Status BinaryReader::ReadBytes(void* data, size_t len) {
  if (file_ == nullptr) return Status::InvalidArgument("reader closed");
  if (len == 0) return Status::OK();
  if (std::fread(data, 1, len, file_) != len) {
    return Status::Corruption("truncated file");
  }
  return Status::OK();
}

Status BinaryReader::ReadFloats(AlignedFloats* values) {
  uint64_t count = 0;
  VECDB_RETURN_NOT_OK(Read(&count));
  if (count > (1ull << 40)) return Status::Corruption("absurd float count");
  values->Resize(count);
  return ReadBytes(values->data(), count * sizeof(float));
}

Status BinaryReader::ReadString(std::string* value) {
  uint64_t count = 0;
  VECDB_RETURN_NOT_OK(Read(&count));
  if (count > (1ull << 30)) return Status::Corruption("absurd string size");
  value->resize(count);
  return ReadBytes(value->data(), count);
}

}  // namespace vecdb
