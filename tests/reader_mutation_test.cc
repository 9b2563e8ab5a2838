// Mutation tests for the readers of committed and cached inputs: the
// per-trial and aggregated CSV readers, the as-rel topology reader and the
// campaign result cache. A fixed-seed SplitMix64 stream applies byte
// flips, insertions, deletions and truncations to known-good inputs; every
// mutant must either parse or be rejected with the reader's documented
// exception — never crash, hang or throw anything else. A corrupt cache
// entry must read as a miss.
#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <optional>
#include <sstream>
#include <stdexcept>
#include <string>
#include <string_view>

#include "sim/campaign.h"
#include "sim/campaign_cache.h"
#include "sim/campaign_io.h"
#include "topology/io.h"
#include "util/rng.h"

namespace sbgp::sim {
namespace {

namespace fs = std::filesystem;
using namespace std::string_view_literals;

/// The SplitMix64 sequence (Steele et al.) from a fixed seed.
class SplitMix {
 public:
  explicit SplitMix(std::uint64_t seed) : state_(seed) {}
  std::uint64_t next() {
    const std::uint64_t out = util::splitmix64(state_);
    state_ += 0x9E3779B97F4A7C15ull;
    return out;
  }
  std::size_t below(std::size_t bound) { return next() % bound; }

 private:
  std::uint64_t state_;
};

/// Bytes a mutation inserts or writes: mostly the separators, quotes,
/// signs, digits and line ends the readers branch on, plus NUL and a
/// high byte.
constexpr std::string_view kAlphabet = ",\"|#-+.eE0123456789\n\r \t\0\xff"sv;

/// One to three random edits of `text`: flip a bit, overwrite or insert
/// a byte from kAlphabet, delete a run of up to 8 bytes, or truncate.
std::string mutate(std::string text, SplitMix& rng) {
  const std::size_t edits = 1 + rng.below(3);
  for (std::size_t e = 0; e < edits; ++e) {
    const std::size_t pos = rng.below(text.size() + 1);
    switch (rng.below(5)) {
      case 0:
        if (pos < text.size()) {
          text[pos] = static_cast<char>(text[pos] ^ (1u << rng.below(8)));
        }
        break;
      case 1:
        if (pos < text.size()) {
          text[pos] = kAlphabet[rng.below(kAlphabet.size())];
        }
        break;
      case 2:
        text.insert(pos, 1, kAlphabet[rng.below(kAlphabet.size())]);
        break;
      case 3:
        text.erase(pos, 1 + rng.below(8));
        break;
      default:
        text.resize(pos);
        break;
    }
  }
  return text;
}

std::string slurp(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  EXPECT_TRUE(in.is_open()) << path;
  return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

std::string baseline_path(const std::string& name) {
  return std::string(SBGP_BASELINE_DIR) + "/" + name;
}

struct Outcomes {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Feeds `mutants` mutants of `input` to `parse`. A mutant counts as
/// rejected when `parse` throws std::invalid_argument, or also
/// std::runtime_error when `runtime_error_allowed`; any other exception is
/// a contract violation and fails the test with the offending bytes.
Outcomes fuzz(const std::string& input, std::uint64_t seed,
              std::size_t mutants, bool runtime_error_allowed,
              const std::function<void(const std::string&)>& parse) {
  SplitMix rng(seed);
  Outcomes out;
  for (std::size_t i = 0; i < mutants; ++i) {
    const std::string mutant = mutate(input, rng);
    try {
      parse(mutant);
      ++out.parsed;
    } catch (const std::invalid_argument&) {
      ++out.rejected;
    } catch (const std::runtime_error& e) {
      if (!runtime_error_allowed) {
        ADD_FAILURE() << "mutant " << i << " threw runtime_error: " << e.what()
                      << "\n---\n" << mutant;
      }
      ++out.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "mutant " << i << " threw " << e.what() << "\n---\n"
                    << mutant;
    }
  }
  return out;
}

constexpr std::size_t kMutants = 1000;

TEST(ReaderMutation, TrialRowCsvReaderParsesOrRejects) {
  for (const char* name : {"tiny-500.csv", "mini-caida.csv"}) {
    const std::string input = slurp(baseline_path(name));
    std::istringstream clean(input);
    ASSERT_FALSE(read_trial_rows_csv(clean).empty()) << name;
    const Outcomes o =
        fuzz(input, 1, kMutants, false, [](const std::string& s) {
          std::istringstream in(s);
          (void)read_trial_rows_csv(in);
        });
    EXPECT_GT(o.parsed, 0u) << name;
    EXPECT_GT(o.rejected, 0u) << name;
  }
}

TEST(ReaderMutation, CampaignRowCsvReaderParsesOrRejects) {
  std::istringstream baseline(slurp(baseline_path("tiny-500.csv")));
  const auto rows = aggregate_trial_rows(read_trial_rows_csv(baseline));
  ASSERT_FALSE(rows.empty());
  std::ostringstream written;
  write_campaign_rows_csv(written, rows);
  const Outcomes o =
      fuzz(written.str(), 2, kMutants, false, [](const std::string& s) {
        std::istringstream in(s);
        (void)read_campaign_rows_csv(in);
      });
  EXPECT_GT(o.parsed, 0u);
  EXPECT_GT(o.rejected, 0u);
}

TEST(ReaderMutation, AsRelReaderParsesOrRejects) {
  const std::string input =
      slurp(std::string(SBGP_TEST_DATA_DIR) + "/mini-caida.txt");
  const Outcomes o = fuzz(input, 3, kMutants, true, [](const std::string& s) {
    std::istringstream in(s);
    (void)topology::read_as_rel(in);
  });
  EXPECT_GT(o.parsed, 0u);
  EXPECT_GT(o.rejected, 0u);
}

TEST(ReaderMutation, CorruptCacheEntryIsAMiss) {
  const fs::path dir =
      fs::temp_directory_path() / "sbgp_reader_mutation_test_cache";
  fs::remove_all(dir);
  std::istringstream baseline(slurp(baseline_path("tiny-500.csv")));
  const CampaignTrialRow row = read_trial_rows_csv(baseline).front();
  const CacheKey key{0x1234, row.topology_seed, 0x5678};
  {
    CampaignCache cache(dir.string());
    cache.store(key, row);
    ASSERT_EQ(cache.lookup(key), std::optional<ExperimentRow>(row.row));
  }
  const fs::path entry = dir / cache_entry_name(key);
  const std::string input = slurp(entry.string());

  constexpr std::size_t kCacheMutants = 500;
  CampaignCache cache(dir.string());
  const Outcomes o =
      fuzz(input, 4, kCacheMutants, false, [&](const std::string& s) {
        std::ofstream(entry, std::ios::binary | std::ios::trunc) << s;
        (void)cache.lookup(key);
      });
  // lookup() swallows every rejection: all mutants "parse", and each
  // one is either served or counted as a corrupt miss.
  EXPECT_EQ(o.parsed, kCacheMutants);
  const CampaignCache::Stats stats = cache.stats();
  EXPECT_EQ(stats.hits + stats.misses, kCacheMutants);
  EXPECT_EQ(stats.corrupt, stats.misses);
  EXPECT_GT(stats.hits, 0u);
  EXPECT_GT(stats.corrupt, 0u);
  fs::remove_all(dir);
}

}  // namespace
}  // namespace sbgp::sim
