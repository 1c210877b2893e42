#include "core/serialize.h"

#include <fstream>
#include <sstream>
#include <vector>

#include "util/error.h"

namespace rlblh {

namespace {
constexpr const char* kMagic = "rlblh-weights v1";
}

void save_weights(std::ostream& out, const PerActionLinearQ& q) {
  out << kMagic << '\n';
  out << "actions " << q.num_actions() << " features " << q.dimension()
      << '\n';
  out.precision(17);
  for (std::size_t a = 0; a < q.num_actions(); ++a) {
    const auto& weights = q.function(a).weights();
    for (std::size_t i = 0; i < weights.size(); ++i) {
      if (i > 0) out << ' ';
      out << weights[i];
    }
    out << '\n';
  }
}

PerActionLinearQ load_weights(std::istream& in) {
  std::string line;
  if (!std::getline(in, line) || line != kMagic) {
    throw DataError("weights: missing or wrong header (expected '" +
                    std::string(kMagic) + "')");
  }
  std::string actions_word, features_word;
  std::size_t actions = 0, dimension = 0;
  if (!std::getline(in, line)) {
    throw DataError("weights: truncated file (no dimensions line)");
  }
  {
    std::istringstream dims(line);
    if (!(dims >> actions_word >> actions >> features_word >> dimension) ||
        actions_word != "actions" || features_word != "features" ||
        actions == 0 || dimension == 0) {
      throw DataError("weights: malformed dimensions line '" + line + "'");
    }
  }
  PerActionLinearQ q(actions, dimension);
  for (std::size_t a = 0; a < actions; ++a) {
    if (!std::getline(in, line)) {
      throw DataError("weights: truncated file (expected " +
                      std::to_string(actions) + " weight rows)");
    }
    std::istringstream row(line);
    std::vector<double> weights(dimension, 0.0);
    for (std::size_t i = 0; i < dimension; ++i) {
      if (!(row >> weights[i])) {
        throw DataError("weights: malformed row for action " +
                        std::to_string(a));
      }
    }
    double extra = 0.0;
    if (row >> extra) {
      throw DataError("weights: too many values for action " +
                      std::to_string(a));
    }
    q.function(a).set_weights(std::move(weights));
  }
  return q;
}

void save_weights_file(const std::string& path, const PerActionLinearQ& q) {
  std::ofstream out(path);
  if (!out) throw DataError("weights: cannot open '" + path + "' for write");
  save_weights(out, q);
}

PerActionLinearQ load_weights_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw DataError("weights: cannot open '" + path + "'");
  return load_weights(in);
}

}  // namespace rlblh
