#include "mem/msg_pool.hpp"

#include <new>

namespace e2e::mem::detail {

void MsgPool::free_block(MsgHeader* h) noexcept { ::operator delete(h); }

}  // namespace e2e::mem::detail
