// Fixture: code that must stay quiet under raw-thread — thread-count
// queries, this_thread, and mentions in comments and strings.
#include <chrono>
#include <thread>

namespace imap {

/* std::thread t; t.detach(); — prose in a block comment, not code */
const char* kNote = "std::async is banned outside the pool";

unsigned threads_available() {
  return std::thread::hardware_concurrency();  // OK: static query
}

unsigned jthreads_available() {
  return std::jthread::hardware_concurrency();  // OK: static query
}

void nap() {
  std::this_thread::sleep_for(std::chrono::milliseconds(1));  // OK
}

struct Job {
  void detach_from(int queue);  // OK: a different member name
};

}  // namespace imap
