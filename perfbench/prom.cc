#include "prom.h"

#include <cctype>
#include <cstdlib>
#include <string>

namespace perfbench {

PromSamples ParsePrometheus(std::string_view text) {
  PromSamples samples;
  size_t pos = 0;
  while (pos < text.size()) {
    size_t end = text.find('\n', pos);
    if (end == std::string_view::npos) end = text.size();
    std::string_view line = text.substr(pos, end - pos);
    pos = end + 1;
    if (line.empty() || line[0] == '#') continue;
    // The value is the last space-separated field; the name (labels
    // included, which may themselves hold spaces) is everything before.
    const size_t space = line.rfind(' ');
    if (space == std::string_view::npos || space == 0) continue;
    const std::string name(line.substr(0, space));
    const std::string value(line.substr(space + 1));
    if (!std::isalpha(static_cast<unsigned char>(name[0])) &&
        name[0] != '_') {
      continue;
    }
    char* parse_end = nullptr;
    const double v = std::strtod(value.c_str(), &parse_end);
    if (parse_end == value.c_str() || *parse_end != '\0') continue;
    samples[name] = v;
  }
  return samples;
}

double PromValue(const PromSamples& samples, const std::string& name) {
  const auto it = samples.find(name);
  return it == samples.end() ? 0.0 : it->second;
}

double PromFamilySum(const PromSamples& samples, const std::string& family) {
  double total = 0.0;
  for (auto it = samples.lower_bound(family);
       it != samples.end() && it->first.compare(0, family.size(), family) == 0;
       ++it) {
    const std::string& name = it->first;
    if (name.size() == family.size() || name[family.size()] == '{') {
      total += it->second;
    }
  }
  return total;
}

}  // namespace perfbench
