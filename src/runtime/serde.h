// Binary partition serialization: a versioned, length-prefixed byte codec
// for PartitionBlock. The codec works on in-memory buffers only; a caller
// that wants a file writes and reads the whole buffer with util/file.h.
//
// This is the spill format of runtime/spill.h: a run file is the header
// and one block record, built in one string and written with one call. The
// byte-level wire layout — magic, version, record framing, per-column
// encodings, null bitmaps, the recursive field encoding of variant cells
// (labels, bags), and the checksum — is specified in docs/STORAGE.md
// precisely enough to write an independent reader; this header is the
// implementation of that spec and must not drift from it
// (ci/check_docs.sh + tests/serde_test.cc).
//
// Round-trip contract: every Field value a block holds — NULL, int64, real
// (exact IEEE bit pattern, NaNs included), string, bool, label
// (recursively), bag (recursively) — deserializes bit-identical to what was
// written, into a block of the same schema. Corrupt, truncated, or
// version-mismatched input, and a record that does not fit its destination
// block, return a clean Status (never crash, never append part of a
// record).
//
// Idiom: Thrill's external-memory block files, which move whole blocks to
// and from disk: typed column bytes go from the block to the buffer and
// back without passing through rows.
#ifndef TRANCE_RUNTIME_SERDE_H_
#define TRANCE_RUNTIME_SERDE_H_

#include <cstdint>
#include <string>
#include <string_view>

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

/// XXH64 with seed 0 over the record payload; the record trailer. Exposed
/// so tests and independent readers can recompute it.
uint64_t Xxh64(const void* data, size_t n);

/// Appends the 8-byte file header (magic, version, flags 0) to *file.
void AppendFileHeader(std::string* file);

/// Appends one block record holding rows [begin, end) of `block` to *file:
/// the frame head, the payload built in place by AppendBlockPayload, the
/// payload length patched into the head, then the XXH64 trailer.
void AppendBlockRecord(const column::PartitionBlock& block, size_t begin,
                       size_t end, std::string* file);

/// Decodes a whole block file, header first, then each record in file
/// order straight into *out's typed columns: int, real and bool values and
/// string bytes go from the payload into the column arrays and the string
/// arena; only variant cells parse Fields. Each record — its frame, lengths,
/// checksum, column kinds, string offsets, trailing bytes, and its column
/// count and kinds against *out's — is validated (docs/STORAGE.md
/// "Validation order") before any of its rows is appended, so a record that
/// fails leaves *out as the records before it left it. An int, real or
/// string section with no NULL is copied whole; the others are appended one
/// value at a time. `path` names the file in the header and truncation
/// messages.
Status ReadBlockFile(std::string_view file, const std::string& path,
                     column::PartitionBlock* out);

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
