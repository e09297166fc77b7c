#include "util/file.h"

#include <fcntl.h>
#include <sys/stat.h>
#include <unistd.h>

#include <cerrno>
#include <cstring>
#include <utility>

namespace trance {

namespace {

Status Failed(const char* what, const std::string& path) {
  return Status::Internal(std::string(what) + " '" + path +
                          "': " + std::strerror(errno));
}

/// Closes fd, keeping the first error: a failed close only reports when
/// nothing failed before it.
Status Close(int fd, const std::string& path, Status s) {
  if (::close(fd) != 0 && s.ok()) return Failed("close failed on", path);
  return s;
}

}  // namespace

Status WriteFile(const std::string& path, std::string_view bytes) {
  const int fd = ::open(path.c_str(), O_WRONLY | O_CREAT | O_TRUNC, 0644);
  if (fd < 0) return Failed("cannot create", path);
  size_t off = 0;
  while (off < bytes.size()) {
    const ssize_t w = ::write(fd, bytes.data() + off, bytes.size() - off);
    if (w < 0) {
      if (errno == EINTR) continue;
      Status s = Failed("write failed on", path);
      return Close(fd, path, std::move(s));
    }
    off += static_cast<size_t>(w);
  }
  return Close(fd, path, Status::OK());
}

Status ReadFile(const std::string& path, std::string* out) {
  const int fd = ::open(path.c_str(), O_RDONLY);
  if (fd < 0) return Failed("cannot open", path);
  struct stat st;
  if (::fstat(fd, &st) != 0) {
    Status s = Failed("cannot stat", path);
    return Close(fd, path, std::move(s));
  }
  out->resize(static_cast<size_t>(st.st_size));
  size_t got = 0;
  while (got < out->size()) {
    const ssize_t r = ::read(fd, out->data() + got, out->size() - got);
    if (r < 0) {
      if (errno == EINTR) continue;
      Status s = Failed("read failed on", path);
      return Close(fd, path, std::move(s));
    }
    if (r == 0) break;  // the file shrank since the stat
    got += static_cast<size_t>(r);
  }
  out->resize(got);
  return Close(fd, path, Status::OK());
}

}  // namespace trance
