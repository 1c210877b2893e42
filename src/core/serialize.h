// Persistence for learned action-value functions.
//
// A deployed controller must survive restarts without relearning from
// scratch (the whole point of the 48-weight footprint is that the learned
// state is trivially small). The format is a line-oriented text file:
//
//     rlblh-weights v1
//     actions <a_M> features <dim>
//     <w_0> <w_1> ... <w_{dim-1}>      # one line per action, in order
//
// Loading validates the header and dimensions and fails loudly on any
// mismatch or malformed number. This is simulate_cli's --save-weights /
// --load-weights file; the daemon's full-state checkpoints are binary
// images (BlhPolicy::save_state, serve/session.h).
#pragma once

#include <iosfwd>
#include <string>

#include "core/qfunction.h"

namespace rlblh {

/// Writes the weight tables to a stream in the v1 text format.
void save_weights(std::ostream& out, const PerActionLinearQ& q);

/// Parses a v1 weight file. Throws DataError on malformed input.
PerActionLinearQ load_weights(std::istream& in);

/// File convenience wrappers. Throw DataError when the file cannot be
/// opened.
void save_weights_file(const std::string& path, const PerActionLinearQ& q);
PerActionLinearQ load_weights_file(const std::string& path);

}  // namespace rlblh
