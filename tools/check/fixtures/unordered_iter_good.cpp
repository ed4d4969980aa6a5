// Fixture: unordered containers used without iterating them, and ordered
// containers iterated — unordered-iter must stay quiet.
#include <map>
#include <string>
#include <unordered_map>
#include <vector>

namespace imap {

double ordered_loop(const std::map<std::string, double>& weights) {
  double total = 0.0;
  for (const auto& kv : weights) total += kv.second;  // OK: ordered
  return total;
}

double lookup_only(const std::vector<std::string>& keys) {
  std::unordered_map<std::string, double> memo;
  double total = 0.0;
  for (const auto& k : keys) {  // OK: iterates the ordered key list
    const auto it = memo.find(k);
    if (it != memo.end()) total += it->second;
  }
  for (std::size_t i = 0; i < keys.size(); ++i) total += 1.0;  // OK
  return total;
}

}  // namespace imap
