// Fixture: raw threading primitives outside the thread pool. Every marked
// line must trip raw-thread.
#include <future>
#include <memory>
#include <thread>
#include <vector>

namespace imap {

void spawn_raw() {
  std::thread t([] {});  // BAD: raw thread
  t.detach();            // BAD: detached thread
  auto f = std::async(std::launch::async, [] { return 1; });  // BAD: async
  f.get();
}

void spawn_pool_of_raw(int n) {
  std::vector<std::jthread> workers;  // BAD: jthread container
  for (int i = 0; i < n; ++i) workers.emplace_back([] {});
  auto worker = std::make_unique<std::thread>([] {});  // BAD: heap thread
  worker->detach();  // BAD: detach through a pointer
}

}  // namespace imap
