#include "simgpu/DeviceAllocator.hpp"

#include "util/Logging.hpp"

namespace gsuite {

uint64_t
DeviceAllocator::map(const void *host_ptr, uint64_t bytes)
{
    auto it = mappings.find(host_ptr);
    if (it != mappings.end())
        return it->second;
    const uint64_t addr = cursor;
    const uint64_t padded = (bytes + kAlign - 1) / kAlign * kAlign;
    cursor += padded == 0 ? kAlign : padded;
    mappings.emplace(host_ptr, addr);
    return addr;
}

uint64_t
DeviceAllocator::addressOf(const void *host_ptr) const
{
    auto it = mappings.find(host_ptr);
    panicIf(it == mappings.end(),
            "addressOf() on a buffer that was never mapped");
    return it->second;
}

bool
DeviceAllocator::isMapped(const void *host_ptr) const
{
    return mappings.find(host_ptr) != mappings.end();
}

void
DeviceAllocator::reset()
{
    cursor = kBase;
    mappings.clear();
}

} // namespace gsuite
