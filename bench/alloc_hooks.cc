// Replacement global operator new/delete that tick the library's allocation
// counters (common/alloc_stats.h). Compiled ONLY into the tj_alloc_tests
// binary, which bounds the index build's allocation count — linking this TU
// routes every allocation of the process through malloc/free plus two
// relaxed atomic adds, which is measurement overhead the other tests, the
// report benches and the examples do not need to pay.

#include <cstdlib>
#include <new>

#include "common/alloc_stats.h"

namespace {

struct HookInstaller {
  HookInstaller() {
    tj::alloc_internal::g_hooks_installed.store(true,
                                                std::memory_order_relaxed);
  }
};
const HookInstaller g_installer;

void* CountedAlloc(std::size_t size) {
  tj::alloc_internal::g_allocs.fetch_add(1, std::memory_order_relaxed);
  tj::alloc_internal::g_bytes.fetch_add(size, std::memory_order_relaxed);
  return std::malloc(size != 0 ? size : 1);
}

void* CountedAlignedAlloc(std::size_t size, std::size_t alignment) {
  tj::alloc_internal::g_allocs.fetch_add(1, std::memory_order_relaxed);
  tj::alloc_internal::g_bytes.fetch_add(size, std::memory_order_relaxed);
  void* p = nullptr;
  if (posix_memalign(&p, alignment, size != 0 ? size : alignment) != 0) {
    return nullptr;
  }
  return p;
}

}  // namespace

void* operator new(std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size) {
  if (void* p = CountedAlloc(size)) return p;
  throw std::bad_alloc();
}

void* operator new(std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new[](std::size_t size, const std::nothrow_t&) noexcept {
  return CountedAlloc(size);
}

void* operator new(std::size_t size, std::align_val_t alignment) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}

void* operator new[](std::size_t size, std::align_val_t alignment) {
  if (void* p = CountedAlignedAlloc(size, static_cast<std::size_t>(alignment)))
    return p;
  throw std::bad_alloc();
}

void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
