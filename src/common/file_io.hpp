// Small POSIX file primitives shared by the artifact writers and the
// sharded experiment service (src/service/).
//
// Two disciplines matter once several *processes* touch the same
// directory (the service's worker shards, or two bench invocations
// pointed at one CSV dir):
//
//  * append_line(): one O_APPEND open + ONE write(2) per record.  POSIX
//    guarantees the kernel applies each such write at the current end of
//    file atomically, so concurrent appenders can interleave *records*
//    but never interleave *bytes within a record* — the property the
//    BENCH/manifest JSON-lines formats need to stay parseable.  (An
//    ofstream in app mode flushes its buffer in unspecified slices and
//    gives no such guarantee.)
//
//  * write_file_atomic(): write to `<path>.tmp.<pid>.<n>` (n a
//    per-process counter, so threads writing one path never share a temp
//    file) then rename(2) into place.  Readers observe either the old
//    file or the complete new one, never a torn prefix — the discipline
//    behind the service's chunk-result cache and its lease-free
//    idempotent retries.
#pragma once

#include <optional>
#include <string>
#include <string_view>

namespace pp {

/// Appends `line` (a '\n' terminator is added when missing) to `path`
/// with a single O_APPEND write.  Creates the file when absent.  Returns
/// false on any error (callers that must stay quiet on unwritable paths
/// — the sinks and BENCH logs — treat that as "disabled").
bool append_line(const std::string& path, std::string_view line);

/// Writes `content` to a sibling temp file and renames it over `path`.
/// Returns false (leaving no temp debris) on any error.
bool write_file_atomic(const std::string& path, std::string_view content);

/// Whole-file read; std::nullopt when the file cannot be opened.
std::optional<std::string> read_file(const std::string& path);

/// mkdir -p.  Returns false when a component exists as a non-directory
/// or creation fails.
bool make_dirs(const std::string& path);

/// Creates `path` exclusively (O_CREAT | O_EXCL) with `content`.  Returns
/// false when the file already exists or cannot be created — the
/// one-winner claim primitive behind the service's chunk leases.
bool create_exclusive(const std::string& path, std::string_view content);

/// True when `path` exists (any file type).
bool path_exists(const std::string& path);

/// Unlinks `path`; returns true when the file was removed by this call.
bool remove_file(const std::string& path);

}  // namespace pp
