// Binary partition serialization: a versioned, length-prefixed on-disk
// format for PartitionBlock over buffered file reader/writer classes.
//
// This is the spill format of runtime/spill.h and the ROADMAP's persistent
// dataset/dictionary cache format. The byte-level wire layout — magic,
// version, record framing, per-column encodings, null bitmaps, the recursive
// field encoding of variant cells (labels, bags), and the checksum — is
// specified in docs/STORAGE.md precisely enough to write an independent
// reader; this header is the implementation of that spec and must not drift
// from it (ci/check_docs.sh + tests/serde_test.cc).
//
// Round-trip contract: every Field value a block holds — NULL, int64, real
// (exact IEEE bit pattern, NaNs included), string, bool, label
// (recursively), bag (recursively) — deserializes bit-identical to what was
// written, into a block of the same schema. Corrupt, truncated, or
// version-mismatched input, and a record that does not fit its destination
// block, return a clean Status (never crash, never append part of a
// record).
//
// Idiom: RaftKeeper's NativeBlockInputStream over
// ReadBufferFromFileDescriptor / WriteBufferFromFileDescriptor, and Thrill's
// external-memory block files: typed column bytes go from the block to the
// file and back without passing through rows.
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
inline constexpr uint16_t kFormatVersion = 3;

/// Record kind of a columnar block record (the `kind` byte of each record
/// frame). Kind 1, the row batch of version 1, is retired: the reader
/// rejects it as an unknown record kind.
inline constexpr uint8_t kRecordBlock = 2;

/// Fixed sizes of the layout: the file header, and the frame around each
/// record payload (kind byte, payload length, checksum trailer).
inline constexpr uint64_t kFileHeaderBytes = 8;
inline constexpr uint64_t kRecordFrameBytes = 17;

/// XXH64 with seed 0 over the record payload; the record trailer. Exposed
/// so tests and independent readers can recompute it.
uint64_t Xxh64(const void* data, size_t n);

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

/// Writes one block file: [file header][record]*. One writer per file.
class BlockFileWriter {
 public:
  BlockFileWriter() = default;

  /// Creates/truncates `path` and writes the file header.
  Status Open(const std::string& path, size_t buffer_bytes = 64 * 1024);

  /// Appends one block record holding the whole block, column by column.
  Status WriteBlock(const column::PartitionBlock& block);

  /// Appends one block record around a payload AppendBlockPayload built:
  /// the frame head, the payload and the checksum go to the buffered file
  /// without an intermediate frame copy.
  Status WriteBlockPayload(const std::string& payload);

  Status Close();
  uint64_t bytes_written() const { return out_.bytes_written(); }

 private:
  BufferedFileWriter out_;
};

/// Reads a block file record by record into resident blocks.
class BlockFileReader {
 public:
  BlockFileReader() = default;

  /// Opens `path` and validates magic + version.
  Status Open(const std::string& path, size_t buffer_bytes = 64 * 1024);

  /// Decodes the next record straight into *out's typed columns: int, real
  /// and bool values and string bytes go from the payload into the column
  /// arrays and the string arena; only variant cells parse Fields. The whole
  /// record — lengths, column kinds, string offsets, trailing bytes, and its
  /// column count and kinds against *out's — is validated before the first
  /// append, so an error leaves *out unchanged. Cells are appended one at a
  /// time in row order, so the restored block's ByteFootprint equals that
  /// of a block built by appending the written rows. Returns false cleanly
  /// at end of file.
  StatusOr<bool> ReadBatchInto(column::PartitionBlock* out);

  Status Close();
  uint64_t bytes_read() const { return in_.bytes_read(); }

 private:
  /// Reads one record frame into kind + payload_, validating length and
  /// checksum. Returns false cleanly at end of file.
  StatusOr<bool> ReadRecord(uint8_t* kind);

  BufferedFileReader in_;
  std::string payload_;
};

// Payload codecs, exposed for tests and for embedding records in other
// containers. AppendField/ParseField implement the recursive tagged field
// encoding of variant cells.
void AppendField(const Field& f, std::string* out);
/// Appends the block-record payload of rows [begin, end) of `block`; the
/// whole block is [0, NumRows()). String offsets are rebased to the range
/// and each null bitmap covers only the range, so the bytes equal those of
/// a block built from just those rows.
void AppendBlockPayload(const column::PartitionBlock& block, size_t begin,
                        size_t end, std::string* out);
Status ParseField(const char* data, size_t size, size_t* pos, Field* out);

}  // namespace serde
}  // namespace runtime
}  // namespace trance

#endif  // TRANCE_RUNTIME_SERDE_H_
