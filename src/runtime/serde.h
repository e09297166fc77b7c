// Binary partition serialization: a versioned, length-prefixed on-disk
// format for PartitionBlock / Row over buffered file reader/writer classes.
//
// This is the spill format of runtime/spill.h and the ROADMAP's persistent
// dataset/dictionary cache format. The byte-level wire layout — magic,
// version, record framing, per-column encodings, null bitmaps, the recursive
// field encoding (labels/bags/variant fallbacks), and the checksum — is
// specified in docs/STORAGE.md precisely enough to write an independent
// reader; this header is the implementation of that spec and must not drift
// from it (ci/check_docs.sh + tests/serde_test.cc).
//
// Round-trip contract: every Field value the columnar path accepts — NULL,
// int64, real (exact IEEE bit pattern, NaNs included), string, bool, label
// (recursively), bag (recursively), plus variant and ragged block fallbacks —
// deserializes bit-identical to what was written. Corrupt, truncated, or
// version-mismatched input returns a clean Status (never crashes, never
// returns partial rows).
//
// Idiom: RaftKeeper's NativeBlockInputStream over
// ReadBufferFromFileDescriptor / WriteBufferFromFileDescriptor, and Thrill's
// external-memory channel block files.
#ifndef TRANCE_RUNTIME_SERDE_H_
#define TRANCE_RUNTIME_SERDE_H_

#include <cstdint>
#include <string>
#include <vector>

#include "runtime/column.h"
#include "runtime/field.h"
#include "util/status.h"

namespace trance {
namespace runtime {
namespace serde {

/// File header magic: the bytes "TRNB" ("trance block") in file order.
/// Stored little-endian, so the on-disk bytes are 54 52 4E 42.
inline constexpr uint32_t kMagic = 0x424E5254u;

/// Format version. Readers reject any other value with a clean Status;
/// see docs/STORAGE.md "Versioning rules" before bumping.
inline constexpr uint16_t kFormatVersion = 1;

/// Record kinds (the `kind` byte of each record frame).
inline constexpr uint8_t kRecordRowBatch = 1;
inline constexpr uint8_t kRecordBlock = 2;

/// 64-bit FNV-1a over the record payload; the record trailer. Exposed so
/// tests and independent readers can recompute it.
uint64_t Fnv1a64(const void* data, size_t n, uint64_t seed = 0xcbf29ce484222325ull);

/// Buffered file writer over a POSIX descriptor (write(2) behind an
/// app-side buffer). Append never short-writes: it either buffers/flushes
/// all n bytes or returns a Status naming the path and errno.
class BufferedFileWriter {
 public:
  BufferedFileWriter() = default;
  ~BufferedFileWriter();
  BufferedFileWriter(const BufferedFileWriter&) = delete;
  BufferedFileWriter& operator=(const BufferedFileWriter&) = delete;

  Status Open(const std::string& path, size_t buffer_bytes = 64 * 1024);
  Status Append(const void* data, size_t n);
  Status Flush();
  /// Flushes and closes; safe to call twice. The destructor closes too but
  /// swallows errors, so callers that care must Close() explicitly.
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  /// Bytes handed to Append so far (buffered or flushed).
  uint64_t bytes_written() const { return bytes_written_; }

 private:
  int fd_ = -1;
  std::string path_;
  std::vector<char> buf_;
  size_t used_ = 0;
  uint64_t bytes_written_ = 0;
};

/// Buffered file reader over a POSIX descriptor. Read is exact-or-error:
/// fewer than n bytes available is a truncation Status, except through
/// AtEof() which peeks cleanly at a record boundary.
class BufferedFileReader {
 public:
  BufferedFileReader() = default;
  ~BufferedFileReader();
  BufferedFileReader(const BufferedFileReader&) = delete;
  BufferedFileReader& operator=(const BufferedFileReader&) = delete;

  Status Open(const std::string& path, size_t buffer_bytes = 64 * 1024);
  Status Read(void* dst, size_t n);
  /// True iff no byte remains (refills the buffer to decide).
  StatusOr<bool> AtEof();
  Status Close();

  bool is_open() const { return fd_ >= 0; }
  uint64_t bytes_read() const { return bytes_read_; }
  /// Total file size, captured at Open. Lets record readers reject a
  /// corrupt length field before allocating for it.
  uint64_t file_size() const { return file_size_; }

 private:
  Status Refill();

  int fd_ = -1;
  std::string path_;
  std::vector<char> buf_;
  size_t used_ = 0;  // valid bytes in buf_
  size_t pos_ = 0;   // next unread byte in buf_
  uint64_t bytes_read_ = 0;
  uint64_t file_size_ = 0;
};

/// Writes one block/row-batch file: [file header][record]*. One writer per
/// file; records are independent, so a file can hold any mix of kinds.
class BlockFileWriter {
 public:
  BlockFileWriter() = default;

  /// Creates/truncates `path` and writes the file header.
  Status Open(const std::string& path, size_t buffer_bytes = 64 * 1024);

  /// Appends one kRecordBlock record. Ragged blocks serialize their row
  /// fallback; columnar blocks serialize column-wise.
  Status WriteBlock(const column::PartitionBlock& block);

  /// Appends one kRecordRowBatch record.
  Status WriteRows(const std::vector<Row>& rows);

  Status Close();
  uint64_t bytes_written() const { return out_.bytes_written(); }

 private:
  Status WriteRecord(uint8_t kind, const std::string& payload);

  BufferedFileWriter out_;
};

/// Reads a block/row-batch file record by record, materializing rows.
class BlockFileReader {
 public:
  BlockFileReader() = default;

  /// Opens `path` and validates magic + version.
  Status Open(const std::string& path, size_t buffer_bytes = 64 * 1024);

  /// Appends the next record's rows to *out (block records materialize
  /// through the same Field values that were written — bit-exact). Returns
  /// false cleanly at end of file. `kind`, when non-null, receives the
  /// record kind so callers can account block→row materializations.
  StatusOr<bool> ReadBatch(std::vector<Row>* out, uint8_t* kind = nullptr);

  /// Appends the next record's rows into *out via per-row AppendRow — the
  /// block-resident restore. The append sequence is exactly what
  /// AppendRowFrom of the written rows would produce, so the restored
  /// block's ByteFootprint matches a never-spilled block built from the same
  /// rows.
  StatusOr<bool> ReadBatchInto(column::PartitionBlock* out);

  Status Close();
  uint64_t bytes_read() const { return in_.bytes_read(); }

 private:
  /// Reads one record frame (kind + payload), validating length and
  /// checksum. Returns false cleanly at end of file.
  StatusOr<bool> ReadRecord(uint8_t* kind, std::string* payload);

  BufferedFileReader in_;
};

// Payload codecs, exposed for tests and for embedding records in other
// containers. AppendField/ParseField implement the recursive tagged field
// encoding shared by both record kinds.
void AppendField(const Field& f, std::string* out);
void AppendRowBatchPayload(const std::vector<Row>& rows, std::string* out);
void AppendBlockPayload(const column::PartitionBlock& block, std::string* out);
Status ParseField(const char* data, size_t size, size_t* pos, Field* out);
Status ParseRecordPayload(uint8_t kind, const std::string& payload,
                          std::vector<Row>* out);

}  // namespace serde
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_SERDE_H_
