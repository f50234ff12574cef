#include "util/RunError.hpp"

#include "util/Logging.hpp"

namespace gsuite {

const char *
runErrorName(RunError e)
{
    switch (e) {
      case RunError::None: return "none";
      case RunError::Config: return "config";
      case RunError::Oom: return "oom";
      case RunError::Timeout: return "timeout";
      case RunError::Unknown: return "unknown";
    }
    panic("unknown RunError");
}

} // namespace gsuite
