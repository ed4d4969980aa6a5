// Fixture: floating equality on computed expressions — type information a
// line pattern lacks (it only sees float *literals*). Every marked line must
// trip float-eq.
#include <cmath>
#include <vector>

namespace imap {

using Reward = double;

bool computed_compare(double a, double b) {
  double sum = a + b;
  return sum == a * 2.0;  // BAD: computed double vs computed double
}

bool alias_compare(Reward r, double target) {
  return r != target;  // BAD: alias of double vs double
}

bool call_result_compare(const std::vector<double>& v, double x) {
  if (std::sqrt(x) == v.front())  // BAD: call results, both floating
    return true;
  while (x * 0.5 != v.back())  // BAD: inside a loop header
    x *= 0.5;
  return false;
}

}  // namespace imap
