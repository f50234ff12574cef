#include "simgpu/Isa.hpp"

#include "util/Logging.hpp"

namespace gsuite {

const char *
instrClassName(InstrClass c)
{
    switch (c) {
      case InstrClass::Fp32: return "FP32";
      case InstrClass::Int: return "INT";
      case InstrClass::LoadStore: return "Load/Store";
      case InstrClass::Control: return "Control";
      case InstrClass::Other: return "other";
    }
    panic("unknown InstrClass");
}

} // namespace gsuite
