#include "config/maui_config.hpp"

#include <sstream>

#include "common/assert.hpp"
#include "common/string_util.hpp"

namespace dbs::cfg {

namespace {

/// Logical lines after comment stripping and '\' continuation joining.
std::vector<std::pair<int, std::string>> logical_lines(std::string_view text) {
  std::vector<std::pair<int, std::string>> out;
  std::istringstream is{std::string(text)};
  std::string raw;
  int line_no = 0;
  int start_line = 0;
  std::string pending;
  while (std::getline(is, raw)) {
    ++line_no;
    if (const auto hash = raw.find('#'); hash != std::string::npos)
      raw.erase(hash);
    std::string_view sv = trim(raw);
    bool continues = false;
    if (!sv.empty() && sv.back() == '\\') {
      continues = true;
      sv.remove_suffix(1);
      sv = trim(sv);
    }
    if (pending.empty()) {
      if (sv.empty() && !continues) continue;
      start_line = line_no;
      pending = std::string(sv);
    } else {
      pending += ' ';
      pending += std::string(sv);
    }
    if (!continues) {
      if (!trim(pending).empty()) out.emplace_back(start_line, pending);
      pending.clear();
    }
  }
  if (!trim(pending).empty()) out.emplace_back(start_line, pending);
  return out;
}

struct Parser {
  core::SchedulerConfig config;
  std::vector<ParseIssue> issues;

  void issue(int line, std::string msg) {
    issues.push_back({line, std::move(msg)});
  }

  template <class T>
  bool expect(int line, const std::optional<T>& v, std::string_view what) {
    if (v.has_value()) return true;
    issue(line, "malformed " + std::string(what));
    return false;
  }

  void entity_settings(int line, core::DfsEntityKind kind,
                       const std::string& name,
                       const std::vector<std::string>& kvs) {
    core::DfsEntityLimits limits = config.dfs.limits_of(kind, name);
    for (const std::string& kv : kvs) {
      const auto pair = split_once(kv, '=');
      if (!pair) {
        issue(line, "expected KEY=VALUE, got '" + kv + "'");
        continue;
      }
      const std::string key = to_upper(pair->first);
      const std::string& value = pair->second;
      if (key == "DFSDYNDELAYPERM") {
        if (const auto b = parse_bool(value); expect(line, b, key))
          limits.delay_perm = *b;
      } else if (key == "DFSSINGLEDELAYTIME") {
        if (const auto d = parse_duration(value); expect(line, d, key))
          limits.single_delay = *d;
      } else if (key == "DFSTARGETDELAYTIME") {
        if (const auto d = parse_duration(value); expect(line, d, key))
          limits.target_delay = *d;
      } else if (key == "PRIORITY") {
        const auto v = parse_double(value);
        if (!expect(line, v, key)) continue;
        switch (kind) {
          case core::DfsEntityKind::User:
            config.cred_priorities.user[name] = *v; break;
          case core::DfsEntityKind::Group:
            config.cred_priorities.group[name] = *v; break;
          case core::DfsEntityKind::Account:
            config.cred_priorities.account[name] = *v; break;
          case core::DfsEntityKind::JobClass:
            config.cred_priorities.job_class[name] = *v; break;
          case core::DfsEntityKind::Qos:
            config.cred_priorities.qos[name] = *v; break;
        }
      } else if (key == "FSTARGET") {
        const auto v = parse_double(value);
        if (!expect(line, v, key)) continue;
        if (kind == core::DfsEntityKind::User)
          config.fairshare.user_targets[name] = *v;
        else
          issue(line, "FSTARGET is only supported for USERCFG");
      } else {
        issue(line, "unknown entity setting '" + key + "'");
      }
    }
    config.dfs.map_of(kind)[name] = limits;
  }

  void global_setting(int line, const std::string& key,
                      const std::vector<std::string>& args) {
    const auto one = [&]() -> std::optional<std::string> {
      if (args.size() != 1) {
        issue(line, key + " expects exactly one value");
        return std::nullopt;
      }
      return args[0];
    };
    if (key == "DFSPOLICY") {
      if (const auto v = one()) {
        const auto p = core::parse_dfs_policy(*v);
        if (expect(line, p, key)) config.dfs.policy = *p;
      }
    } else if (key == "DFSINTERVAL") {
      if (const auto v = one())
        if (const auto d = parse_duration(*v); expect(line, d, key))
          config.dfs.interval = *d;
    } else if (key == "DFSDECAY") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.dfs.decay = *d;
    } else if (key == "RESERVATIONDEPTH") {
      if (const auto v = one())
        if (const auto n = parse_int(*v); expect(line, n, key))
          config.reservation_depth = static_cast<std::size_t>(*n);
    } else if (key == "RESERVATIONDELAYDEPTH") {
      if (const auto v = one())
        if (const auto n = parse_int(*v); expect(line, n, key))
          config.reservation_delay_depth = static_cast<std::size_t>(*n);
    } else if (key == "BACKFILL") {
      if (const auto v = one())
        if (const auto b = parse_bool(*v); expect(line, b, key))
          config.enable_backfill = *b;
    } else if (key == "QUEUETIMEWEIGHT") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.weights.queue_time_per_minute = *d;
    } else if (key == "XFACTORWEIGHT") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.weights.xfactor = *d;
    } else if (key == "RESWEIGHT") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.weights.per_core = *d;
    } else if (key == "CREDWEIGHT") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.weights.cred = *d;
    } else if (key == "FSWEIGHT") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.weights.fairshare = *d;
    } else if (key == "FAIRSHARE") {
      if (const auto v = one())
        if (const auto b = parse_bool(*v); expect(line, b, key))
          config.fairshare.enabled = *b;
    } else if (key == "FSINTERVAL") {
      if (const auto v = one())
        if (const auto d = parse_duration(*v); expect(line, d, key))
          config.fairshare.interval = *d;
    } else if (key == "FSDEPTH") {
      if (const auto v = one())
        if (const auto n = parse_int(*v); expect(line, n, key))
          config.fairshare.depth = static_cast<std::size_t>(*n);
    } else if (key == "FSDECAY") {
      if (const auto v = one())
        if (const auto d = parse_double(*v); expect(line, d, key))
          config.fairshare.decay = *d;
    } else if (key == "POLLINTERVAL") {
      if (const auto v = one())
        if (const auto d = parse_duration(*v); expect(line, d, key))
          config.poll_interval = *d;
    } else if (key == "PREEMPTION") {
      if (const auto v = one())
        if (const auto b = parse_bool(*v); expect(line, b, key))
          config.allow_preemption = *b;
    } else if (key == "MALLEABLESTEAL") {
      if (const auto v = one())
        if (const auto b = parse_bool(*v); expect(line, b, key))
          config.allow_malleable_steal = *b;
    } else if (key == "DYNPARTITION") {
      if (const auto v = one())
        if (const auto n = parse_int(*v); expect(line, n, key))
          config.dynamic_partition_cores = static_cast<CoreCount>(*n);
    } else if (key == "MAXJOBSPERUSER") {
      if (const auto v = one())
        if (const auto n = parse_int(*v); expect(line, n, key))
          config.max_eligible_per_user = static_cast<std::size_t>(*n);
    } else if (key == "STAGETIMING") {
      if (const auto v = one())
        if (const auto b = parse_bool(*v); expect(line, b, key))
          config.stage_timing = *b;
    } else if (key == "ALLOCATIONPOLICY") {
      if (const auto v = one()) {
        if (iequals(*v, "PACK"))
          config.allocation_policy = cluster::AllocationPolicy::Pack;
        else if (iequals(*v, "SPREAD"))
          config.allocation_policy = cluster::AllocationPolicy::Spread;
        else if (iequals(*v, "FIRSTFIT"))
          config.allocation_policy = cluster::AllocationPolicy::FirstFit;
        else
          issue(line, "unknown allocation policy '" + *v + "'");
      }
    } else if (key == "DFSDEFAULTCFG") {
      // Default limits applied to unconfigured entities.
      core::DfsEntityLimits limits = config.dfs.defaults;
      for (const std::string& kv : args) {
        const auto pair = split_once(kv, '=');
        if (!pair) {
          issue(line, "expected KEY=VALUE, got '" + kv + "'");
          continue;
        }
        const std::string k = to_upper(pair->first);
        if (k == "DFSDYNDELAYPERM") {
          if (const auto b = parse_bool(pair->second); expect(line, b, k))
            limits.delay_perm = *b;
        } else if (k == "DFSSINGLEDELAYTIME") {
          if (const auto d = parse_duration(pair->second); expect(line, d, k))
            limits.single_delay = *d;
        } else if (k == "DFSTARGETDELAYTIME") {
          if (const auto d = parse_duration(pair->second); expect(line, d, k))
            limits.target_delay = *d;
        } else {
          issue(line, "unknown default setting '" + k + "'");
        }
      }
      config.dfs.defaults = limits;
    } else {
      issue(line, "unknown key '" + key + "'");
    }
  }

  void parse_line(int line, const std::string& content) {
    const std::vector<std::string> tokens = split(content);
    if (tokens.empty()) return;
    const std::string head = to_upper(tokens[0]);
    const std::vector<std::string> args(tokens.begin() + 1, tokens.end());

    // Entity config: USERCFG[name], GROUPCFG[name], ...
    static constexpr std::pair<const char*, core::DfsEntityKind> kEntities[] = {
        {"USERCFG", core::DfsEntityKind::User},
        {"GROUPCFG", core::DfsEntityKind::Group},
        {"ACCOUNTCFG", core::DfsEntityKind::Account},
        {"CLASSCFG", core::DfsEntityKind::JobClass},
        {"QOSCFG", core::DfsEntityKind::Qos},
    };
    for (const auto& [prefix, kind] : kEntities) {
      const std::string p = std::string(prefix) + "[";
      if (head.rfind(p, 0) == 0) {
        if (head.back() != ']') {
          issue(line, "missing ']' in '" + tokens[0] + "'");
          return;
        }
        // Preserve the original case of the entity name.
        const std::string name =
            tokens[0].substr(p.size(), tokens[0].size() - p.size() - 1);
        if (name.empty()) {
          issue(line, "empty entity name");
          return;
        }
        entity_settings(line, kind, name, args);
        return;
      }
    }
    global_setting(line, head, args);
  }
};

}  // namespace

ParseResult parse_maui_config(std::string_view text) {
  Parser parser;
  for (const auto& [line, content] : logical_lines(text))
    parser.parse_line(line, content);
  return {std::move(parser.config), std::move(parser.issues)};
}

core::SchedulerConfig parse_maui_config_or_throw(std::string_view text) {
  ParseResult result = parse_maui_config(text);
  if (!result.ok()) {
    const ParseIssue& first = result.issues.front();
    throw precondition_error("config line " + std::to_string(first.line) +
                             ": " + first.message);
  }
  result.config.validate();
  return std::move(result.config);
}

std::string render_dfs_config(const core::DfsConfig& dfs) {
  std::ostringstream os;
  os << "DFSPOLICY    " << core::to_string(dfs.policy) << "\n";
  os << "DFSINTERVAL  " << dfs.interval.to_hms() << "\n";
  os << "DFSDECAY     " << dfs.decay << "\n";
  static constexpr std::pair<const char*, core::DfsEntityKind> kEntities[] = {
      {"USERCFG", core::DfsEntityKind::User},
      {"GROUPCFG", core::DfsEntityKind::Group},
      {"ACCOUNTCFG", core::DfsEntityKind::Account},
      {"CLASSCFG", core::DfsEntityKind::JobClass},
      {"QOSCFG", core::DfsEntityKind::Qos},
  };
  for (const auto& [prefix, kind] : kEntities) {
    for (const auto& [name, limits] : dfs.map_of(kind)) {
      os << prefix << "[" << name << "] DFSDYNDELAYPERM="
         << (limits.delay_perm ? 1 : 0)
         << " DFSSINGLEDELAYTIME=" << limits.single_delay.to_hms()
         << " DFSTARGETDELAYTIME=" << limits.target_delay.to_hms() << "\n";
    }
  }
  return os.str();
}

}  // namespace dbs::cfg
