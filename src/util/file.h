// Whole-file I/O: a file is written with one call and read back with one
// call, for callers that already hold (or want) its bytes in one buffer.
#ifndef TRANCE_UTIL_FILE_H_
#define TRANCE_UTIL_FILE_H_

#include <string>
#include <string_view>

#include "util/status.h"

namespace trance {

/// Creates or truncates `path` and writes all of `bytes` to it. A failed
/// open, write or close is a Status naming the path and the errno.
Status WriteFile(const std::string& path, std::string_view bytes);

/// Replaces *out with the whole content of `path`. A reused string keeps its
/// capacity, so reading files no larger than one already read allocates
/// nothing. A failed open, stat, read or close is a Status naming the path
/// and the errno.
Status ReadFile(const std::string& path, std::string* out);

}  // namespace trance

#endif  // TRANCE_UTIL_FILE_H_
