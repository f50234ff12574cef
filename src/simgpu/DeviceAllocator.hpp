/**
 * @file
 * Virtual device address assignment.
 *
 * Host buffers that kernels touch are registered here to obtain
 * stable 256-byte-aligned "device" addresses; trace generators derive
 * per-lane global addresses from them so the cache models see the
 * same aliasing/locality structure a real GPU allocation would.
 */

#ifndef GSUITE_SIMGPU_DEVICEALLOCATOR_HPP
#define GSUITE_SIMGPU_DEVICEALLOCATOR_HPP

#include <cstdint>
#include <unordered_map>

namespace gsuite {

/** Bump allocator over a fake device address space. */
class DeviceAllocator
{
  public:
    DeviceAllocator() = default;

    /**
     * Register a host buffer and return its device base address.
     * Re-registering the same pointer returns the existing mapping
     * (buffers keep stable addresses across kernels in a pipeline).
     */
    uint64_t map(const void *host_ptr, uint64_t bytes);

    /** Device address of a registered buffer; panic() if unknown. */
    uint64_t addressOf(const void *host_ptr) const;

    /** True if the pointer is registered. */
    bool isMapped(const void *host_ptr) const;

    /**
     * Bytes the bump allocator has handed out since construction or
     * reset(): every mapping's size, rounded up to 256 bytes (a
     * 0-byte map takes one slot). Nothing is ever freed, so this is
     * the high-water mark of the address space.
     */
    uint64_t bytesPeak() const { return cursor - kBase; }

    /** Forget all mappings (new pipeline run). */
    void reset();

  private:
    static constexpr uint64_t kBase = 0x7f00'0000'0000ULL;
    static constexpr uint64_t kAlign = 256;

    uint64_t cursor = kBase;
    std::unordered_map<const void *, uint64_t> mappings;
};

} // namespace gsuite

#endif // GSUITE_SIMGPU_DEVICEALLOCATOR_HPP
