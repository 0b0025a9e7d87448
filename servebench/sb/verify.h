#pragma once
// Output correctness, checked after the timed window against references
// computed in this process:
//   * greedy generations equal GptModel::generate_cached on the prompt;
//   * each session turn equals that request made with the full history
//     (earlier prompts and outputs, then the turn's prompt) as its prompt;
//   * every constrained token is legal under the grammar's TokenDfa;
//   * every embedding equals BertEncoder::embed of its input alone.
// A mismatch marks the record (Record::mismatch) and fails the run.

#include <cstddef>
#include <string>
#include <vector>

#include "sb/run.h"

namespace servebench {

struct Verdict {
  std::size_t greedy = 0;
  std::size_t session_turns = 0;
  std::size_t constrained = 0;
  std::size_t embeddings = 0;
  std::size_t mismatches = 0;
  /// The first few mismatches, described.
  std::vector<std::string> examples;
};

Verdict verify(const Models& models, std::vector<Record>& records);

}  // namespace servebench
