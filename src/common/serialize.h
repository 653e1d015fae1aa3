// Minimal binary (de)serialization over stdio FILEs, used for index
// persistence (faisslike Save/Load). Little-endian host format with a
// per-file magic + version header; not portable across endianness.
#pragma once

#include <cstdint>
#include <cstdio>
#include <string>
#include <vector>

#include "common/aligned_buffer.h"
#include "common/status.h"

namespace vecdb {

/// Sequential writer with Status-based error reporting.
class BinaryWriter {
 public:
  /// Opens `path` for writing and emits the header.
  static Result<BinaryWriter> Open(const std::string& path, uint32_t magic,
                                   uint32_t version);

  ~BinaryWriter();
  BinaryWriter(BinaryWriter&& other) noexcept;
  BinaryWriter& operator=(BinaryWriter&&) = delete;
  BinaryWriter(const BinaryWriter&) = delete;

  /// Writes a trivially-copyable value.
  template <typename T>
  Status Write(const T& value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return WriteBytes(&value, sizeof(T));
  }

  /// Writes `n` trivially-copyable elements, length-prefixed.
  template <typename T>
  Status WriteArray(const T* values, size_t n) {
    static_assert(std::is_trivially_copyable_v<T>);
    VECDB_RETURN_NOT_OK(Write<uint64_t>(n));
    return WriteBytes(values, n * sizeof(T));
  }

  /// Writes a length-prefixed array of trivially-copyable elements.
  template <typename T>
  Status WriteVector(const std::vector<T>& values) {
    return WriteArray(values.data(), values.size());
  }

  /// Writes a length-prefixed float buffer.
  Status WriteFloats(const AlignedFloats& values);

  /// Writes a length-prefixed string.
  Status WriteString(const std::string& value);

  /// Writes each field in order: a vector or AlignedFloats length-
  /// prefixed, any other value as its bytes. BinaryReader::Fields reads
  /// the same list back, so a format names its fields once for both
  /// directions (hnswlib's writeBinaryPOD / readBinaryPOD pairs).
  template <typename... T>
  Status Fields(const T&... fields) {
    Status status;
    (void)((status = Field(fields)).ok() && ...);
    return status;
  }

  /// Flushes, fsyncs and closes; further writes are invalid. The bytes
  /// are durable once this returns OK.
  Status Close();

 private:
  explicit BinaryWriter(std::FILE* file) : file_(file) {}
  Status WriteBytes(const void* data, size_t len);

  Status Field(const AlignedFloats& values) { return WriteFloats(values); }
  template <typename T>
  Status Field(const std::vector<T>& values) {
    return WriteVector(values);
  }
  template <typename T>
  Status Field(const T& value) {
    return Write(value);
  }

  std::FILE* file_;
};

/// Sequential reader mirroring BinaryWriter.
class BinaryReader {
 public:
  /// Opens `path`, validating magic and version.
  static Result<BinaryReader> Open(const std::string& path, uint32_t magic,
                                   uint32_t expected_version);

  /// Opens `path`, accepting any version in [min_version, max_version] and
  /// reporting which one the file carries via `found_version`. Loaders use
  /// this to keep reading files written by older format revisions.
  static Result<BinaryReader> Open(const std::string& path, uint32_t magic,
                                   uint32_t min_version, uint32_t max_version,
                                   uint32_t* found_version);

  ~BinaryReader();
  BinaryReader(BinaryReader&& other) noexcept;
  BinaryReader& operator=(BinaryReader&&) = delete;
  BinaryReader(const BinaryReader&) = delete;

  template <typename T>
  Status Read(T* value) {
    static_assert(std::is_trivially_copyable_v<T>);
    return ReadBytes(value, sizeof(T));
  }

  template <typename T>
  Status ReadVector(std::vector<T>* values) {
    static_assert(std::is_trivially_copyable_v<T>);
    uint64_t count = 0;
    VECDB_RETURN_NOT_OK(Read(&count));
    if (count > (1ull << 40)) return Status::Corruption("absurd array size");
    values->resize(count);
    return ReadBytes(values->data(), count * sizeof(T));
  }

  Status ReadFloats(AlignedFloats* values);
  Status ReadString(std::string* value);

  /// Reads each field in order, mirroring BinaryWriter::Fields.
  template <typename... T>
  Status Fields(T&... fields) {
    Status status;
    (void)((status = Field(fields)).ok() && ...);
    return status;
  }

 private:
  explicit BinaryReader(std::FILE* file) : file_(file) {}
  Status ReadBytes(void* data, size_t len);

  Status Field(AlignedFloats& values) { return ReadFloats(&values); }
  template <typename T>
  Status Field(std::vector<T>& values) {
    return ReadVector(&values);
  }
  template <typename T>
  Status Field(T& value) {
    return Read(&value);
  }

  std::FILE* file_;
};

}  // namespace vecdb
