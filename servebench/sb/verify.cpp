#include "sb/verify.h"

#include <algorithm>
#include <atomic>
#include <functional>
#include <map>
#include <mutex>
#include <thread>

namespace servebench {

namespace {

bool legal_under(const matgpt::serve::workloads::TokenDfa& dfa,
                 const std::vector<std::int32_t>& tokens) {
  std::int32_t state = dfa.start();
  for (std::size_t i = 0; i < tokens.size(); ++i) {
    if (tokens[i] == dfa.eos()) {
      return dfa.eos_legal(state) && i + 1 == tokens.size();
    }
    state = dfa.next(state, tokens[i]);
    if (state < 0) return false;
  }
  return true;
}

std::vector<std::int32_t> reference(const Models& models,
                                    const std::vector<std::int32_t>& prompt,
                                    const Record& r) {
  matgpt::Rng rng(r.seed);
  auto full = models.gpt->generate_cached(prompt, r.max_new, sampling_of(r),
                                          rng);
  return std::vector<std::int32_t>(
      full.begin() + static_cast<std::ptrdiff_t>(prompt.size()), full.end());
}

}  // namespace

Verdict verify(const Models& models, std::vector<Record>& records) {
  Verdict v;
  std::mutex mu;  // guards v
  auto fail = [&](Record& r, const std::string& what) {
    r.mismatch = true;
    std::lock_guard lock(mu);
    v.mismatches += 1;
    if (v.examples.size() < 5) {
      v.examples.push_back(std::string(kind_name(r.kind)) + " request " +
                           std::to_string(r.id) + ": " + what);
    }
  };
  auto count = [&](std::size_t& counter) {
    std::lock_guard lock(mu);
    counter += 1;
  };

  // Independent tasks: one per checked record, one per conversation (its
  // turns build on each other's outputs).
  std::vector<std::function<void()>> tasks;
  std::map<int, std::vector<Record*>> conversations;
  for (Record& r : records) {
    if (!r.ok) continue;
    if (r.kind == Kind::kSession) {
      conversations[r.conversation].push_back(&r);
    } else if (r.kind == Kind::kEmbed) {
      tasks.push_back([&, rp = &r] {
        for (std::size_t i = 0; i < rp->inputs.size(); ++i) {
          if (models.bert->embed(rp->inputs[i]) != rp->embeddings[i]) {
            fail(*rp, "embedding " + std::to_string(i) +
                          " differs from BertEncoder::embed");
          }
        }
        count(v.embeddings);
      });
    } else if (r.kind == Kind::kConstrained) {
      tasks.push_back([&, rp = &r] {
        if (!legal_under(*models.json_grammar, rp->tokens)) {
          fail(*rp, "token illegal under the json grammar");
        }
        count(v.constrained);
      });
    } else if (r.greedy) {
      tasks.push_back([&, rp = &r] {
        if (reference(models, rp->prompt, *rp) != rp->tokens) {
          fail(*rp, "differs from generate_cached");
        }
        count(v.greedy);
      });
    }
  }
  for (auto& [id, turns] : conversations) {
    tasks.push_back([&, turns = turns] {
      std::vector<std::int32_t> history;
      int expected_turn = 0;
      for (Record* t : turns) {
        if (t->turn != expected_turn++) break;  // an earlier turn failed
        history.insert(history.end(), t->prompt.begin(), t->prompt.end());
        if (reference(models, history, *t) != t->tokens) {
          fail(*t, "differs from the full-history request");
        }
        history.insert(history.end(), t->tokens.begin(), t->tokens.end());
        count(v.session_turns);
      }
    });
  }

  std::atomic<std::size_t> next{0};
  const unsigned workers =
      std::max(1u, std::min(4u, std::thread::hardware_concurrency()));
  std::vector<std::thread> pool;
  for (unsigned w = 0; w < workers; ++w) {
    pool.emplace_back([&] {
      for (std::size_t i = next++; i < tasks.size(); i = next++) {
        try {
          tasks[i]();
        } catch (const std::exception& e) {
          std::lock_guard lock(mu);
          v.mismatches += 1;
          v.examples.push_back(std::string("reference failed: ") + e.what());
        }
      }
    });
  }
  for (auto& t : pool) t.join();
  return v;
}

}  // namespace servebench
