// The checkout a bench snapshot was measured on, for the JSON it writes.
#pragma once

#include <cstdio>
#include <string>

namespace commsched {

/// `git describe --always --dirty` of the working directory ("-dirty" when
/// the tree has uncommitted changes), or "unknown" outside a git checkout.
inline std::string source_commit() {
  std::string out;
  if (FILE* pipe = popen("git describe --always --dirty 2>/dev/null", "r")) {
    char buf[128];
    while (std::fgets(buf, sizeof buf, pipe) != nullptr) out += buf;
    pclose(pipe);
  }
  while (!out.empty() && (out.back() == '\n' || out.back() == '\r'))
    out.pop_back();
  return out.empty() ? "unknown" : out;
}

}  // namespace commsched
