#include "common/check.h"

#include <sstream>

namespace mlsim::detail {

void check_failed(std::string_view msg, const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << " check failed: " << msg;
  throw CheckError(os.str());
}

void check_index_failed(std::size_t v, std::size_t hi, std::string_view what,
                        const std::source_location& loc) {
  std::ostringstream os;
  os << loc.file_name() << ':' << loc.line() << " index check failed: " << what
     << " = " << v << " must be < " << hi;
  throw CheckError(os.str());
}

}  // namespace mlsim::detail
