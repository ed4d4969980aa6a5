// Fixture: loops over unordered containers in a numeric layer. Every marked
// line must trip unordered-iter.
#include <string>
#include <unordered_map>
#include <unordered_set>

namespace imap {

using WeightTable = std::unordered_map<std::string, double>;

class Scorer {
 public:
  double total() const;

 private:
  std::unordered_multiset<int> hits_;
};

double local_loops() {
  std::unordered_map<std::string, double> weights;
  std::unordered_set<int> seen;
  double total = 0.0;
  for (const auto& kv : weights) total += kv.second;  // BAD: range-for
  for (auto it = seen.begin(); it != seen.end(); ++it)  // BAD: iterator
    total += *it;
  return total;
}

double alias_loop(const WeightTable& table) {
  double total = 0.0;
  for (const auto& [key, w] : table) total += w;  // BAD: through an alias
  return total;
}

double Scorer::total() const {
  double sum = 0.0;
  for (auto it = hits_.cbegin(); it != hits_.cend(); ++it)  // BAD: member
    sum += *it;
  return sum;
}

}  // namespace imap
