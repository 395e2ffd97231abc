#include "waveform/abstract_waveform.hpp"

#include <ostream>
#include <sstream>

namespace waveck {

std::string LtInterval::str() const {
  if (is_empty()) return "phi";
  // Appended piece by piece: `"[" + lmin.str()` prepends to a temporary,
  // which GCC 12 flags as an overlapping memcpy (-Wrestrict, a false
  // positive).
  std::string s = "[";
  s += lmin.str();
  s += ',';
  s += max.str();
  s += ']';
  return s;
}

std::ostream& operator<<(std::ostream& os, const LtInterval& i) {
  return os << i.str();
}

std::string AbstractWaveform::str() const {
  if (is_empty()) return "phi";
  return std::string(v ? "1|" : "0|") + lti.str();
}

std::ostream& operator<<(std::ostream& os, const AbstractWaveform& w) {
  return os << w.str();
}

std::string AbstractSignal::str() const {
  std::ostringstream os;
  os << "(0|" << w[0].str() << ", 1|" << w[1].str() << ")";
  return os.str();
}

std::ostream& operator<<(std::ostream& os, const AbstractSignal& s) {
  return os << s.str();
}

}  // namespace waveck
