// Robustness tests: every parser in the library must reject arbitrary
// garbage and mutated valid input with CsbError (or a clean nullopt/false),
// never crash or read out of bounds. Deterministic pseudo-fuzz with bounded
// iterations.
#include <gtest/gtest.h>
#include <unistd.h>

#include <cmath>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "flow/netflow_io.hpp"
#include "graph/graph_io.hpp"
#include "lint/lexer.hpp"
#include "obs/json.hpp"
#include "obs/trace.hpp"
#include "pcap/packet.hpp"
#include "pcap/pcap_file.hpp"
#include "seed/seed.hpp"
#include "store/graph_store.hpp"
#include "store/shard_store.hpp"
#include "util/byte_reader.hpp"
#include "util/error.hpp"
#include "util/random.hpp"
#include "util/thread_pool.hpp"
#include "veracity/veracity.hpp"

namespace csb {
namespace {

std::vector<std::uint8_t> random_bytes(Rng& rng, std::size_t max_len) {
  std::vector<std::uint8_t> bytes(rng.uniform(max_len + 1));
  for (auto& b : bytes) b = static_cast<std::uint8_t>(rng.uniform(256));
  return bytes;
}

class FuzzSeedTest : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(FuzzSeedTest, DecodeFrameNeverCrashes) {
  Rng rng(GetParam());
  for (int i = 0; i < 2000; ++i) {
    const auto bytes = random_bytes(rng, 256);
    // Any result is fine; the contract is "no crash, no UB".
    const auto decoded =
        decode_frame(bytes.data(), bytes.size(),
                     static_cast<std::uint32_t>(rng.uniform(65536)),
                     rng.uniform(1ULL << 40));
    if (decoded) {
      EXPECT_TRUE(decoded->protocol == 1 || decoded->protocol == 6 ||
                  decoded->protocol == 17);
    }
  }
}

TEST_P(FuzzSeedTest, DecodeMutatedValidFramesNeverCrashes) {
  Rng rng(GetParam() ^ 0xff);
  FrameSpec spec;
  spec.src_ip = 1;
  spec.dst_ip = 2;
  spec.src_port = 1000;
  spec.dst_port = 80;
  spec.payload_len = 100;
  for (int i = 0; i < 2000; ++i) {
    auto frame = build_tcp_frame(spec, kTcpAck);
    // Flip a handful of random bytes.
    for (int flips = 0; flips < 5; ++flips) {
      frame[rng.uniform(frame.size())] ^=
          static_cast<std::uint8_t>(1 + rng.uniform(255));
    }
    const std::size_t truncate_to = rng.uniform(frame.size() + 1);
    (void)decode_frame(frame.data(), truncate_to,
                       static_cast<std::uint32_t>(frame.size()), 0);
  }
}

TEST_P(FuzzSeedTest, PcapReaderRejectsGarbage) {
  Rng rng(GetParam() ^ 0xabc);
  for (int i = 0; i < 300; ++i) {
    try {
      const IndexedPcap capture = index_pcap(random_bytes(rng, 512), "fuzz");
      for (std::size_t r = 0; r < capture.records.size(); ++r) {
        (void)capture.packet(r);
      }
    } catch (const CsbError&) {
      // expected for malformed input
    }
  }
}

TEST_P(FuzzSeedTest, GraphBinaryLoaderRejectsGarbage) {
  Rng rng(GetParam() ^ 0xdef);
  for (int i = 0; i < 300; ++i) {
    auto bytes = random_bytes(rng, 256);
    // Half the time, start with the right magic to reach deeper code.
    if (rng.bernoulli(0.5) && bytes.size() >= 4) {
      bytes[0] = 'C';
      bytes[1] = 'S';
      bytes[2] = 'B';
      bytes[3] = 'G';
    }
    try {
      (void)load_binary(bytes, "fuzz");
    } catch (const CsbError&) {
    }
  }
}

TEST_P(FuzzSeedTest, ProfileLoaderRejectsGarbage) {
  Rng rng(GetParam() ^ 0x123);
  for (int i = 0; i < 200; ++i) {
    auto bytes = random_bytes(rng, 256);
    if (rng.bernoulli(0.5) && bytes.size() >= 4) {
      bytes[0] = 'C';
      bytes[1] = 'S';
      bytes[2] = 'B';
      bytes[3] = 'P';
    }
    try {
      (void)SeedProfile::load(bytes, "fuzz");
    } catch (const CsbError&) {
    }
  }
}

TEST_P(FuzzSeedTest, NetflowCsvRejectsGarbageLines) {
  Rng rng(GetParam() ^ 0x456);
  for (int i = 0; i < 200; ++i) {
    std::string text =
        "src_ip,dst_ip,protocol,src_port,dst_port,first_us,last_us,"
        "out_bytes,in_bytes,out_pkts,in_pkts,syn_count,ack_count,state\n";
    const auto bytes = random_bytes(rng, 120);
    text.append(reinterpret_cast<const char*>(bytes.data()), bytes.size());
    std::stringstream stream(text);
    try {
      (void)load_netflow_csv(stream);
    } catch (const CsbError&) {
    }
  }
}

TEST_P(FuzzSeedTest, IpParserRejectsGarbageStrings) {
  Rng rng(GetParam() ^ 0x789);
  for (int i = 0; i < 2000; ++i) {
    std::string text;
    const std::size_t len = rng.uniform(16);
    for (std::size_t c = 0; c < len; ++c) {
      text.push_back(static_cast<char>('0' + rng.uniform(12)));  // digits + : ;
    }
    try {
      (void)ip_from_string(text);
    } catch (const CsbError&) {
    }
  }
}

TEST_P(FuzzSeedTest, CsrBinMutantsThrowAtOpenOrScoreFinite) {
  namespace fs = std::filesystem;
  Rng rng(GetParam() ^ 0xc5b);
  const std::uint64_t n = 64;
  PropertyGraph graph(n);
  for (int e = 0; e < 400; ++e) graph.add_edge(rng.uniform(n), rng.uniform(n));
  const fs::path dir = fs::temp_directory_path() /
                       ("csb_csr_fuzz_" + std::to_string(::getpid()) + "_" +
                        std::to_string(GetParam()));
  fs::remove_all(dir);
  ThreadPool pool(2);
  ShardStore store(ShardStoreOptions{.directory = dir.string(),
                                     .shard_count = 2,
                                     .pool = &pool});
  replay_graph_into(graph, store, 0);
  const fs::path csr = dir / "csr.bin";
  std::vector<std::uint64_t> words(fs::file_size(csr) / 8);
  std::ifstream(csr, std::ios::binary)
      .read(reinterpret_cast<char*>(words.data()),
            static_cast<std::streamsize>(words.size() * 8));
  // Values on the checks' edges (the graph has 400 edges), plus raw
  // random words.
  const std::uint64_t edge_values[] = {
      0, 1, n - 1, n, 400, 401, 1ULL << 40, ~0ULL, ~0ULL - 399, 1ULL << 63};
  int rejected = 0;
  int accepted = 0;
  for (int i = 0; i < 300; ++i) {
    std::vector<std::uint64_t> mutant = words;
    const std::uint64_t flips = 1 + rng.uniform(3);
    for (std::uint64_t f = 0; f < flips; ++f) {
      const std::uint64_t at = rng.uniform(mutant.size());
      const std::uint64_t kind = rng.uniform(3);
      const std::uint64_t pick = rng.uniform(std::size(edge_values));
      mutant[at] = kind == 0 ? edge_values[pick]
                   : kind == 1 ? rng.uniform(2 * n)
                               : rng();
    }
    std::ofstream(csr, std::ios::binary | std::ios::trunc)
        .write(reinterpret_cast<const char*>(mutant.data()),
               static_cast<std::streamsize>(mutant.size() * 8));
    try {
      const ShardStoreReader reader(dir.string(), &pool);
      const VeracityReport report =
          evaluate_veracity(graph, reader.csr(), pool);
      EXPECT_TRUE(std::isfinite(report.degree_score)) << i;
      EXPECT_TRUE(std::isfinite(report.pagerank_score)) << i;
      ++accepted;
    } catch (const CsbError& error) {
      EXPECT_NE(std::string(error.what()).find("csr.bin"), std::string::npos)
          << i << ": " << error.what();
      ++rejected;
    }
  }
  fs::remove_all(dir);
  EXPECT_GT(rejected, 0);
  EXPECT_GT(accepted, 0);
}

// Mutates manifest.json (byte flips, truncations) and the shard files
// (8-byte words). Every mutant either throws a CsbError naming a file of
// the store at open, verify() or to_property_graph(), or passes all three.
TEST_P(FuzzSeedTest, ShardStoreMutantsThrowNamingAFileOrPassEveryCheck) {
  namespace fs = std::filesystem;
  Rng rng(GetParam() ^ 0x5ad);
  const std::uint64_t n = 64;
  PropertyGraph graph(n);
  for (std::uint64_t e = 0; e < 400; ++e) {
    graph.add_edge(rng.uniform(n), rng.uniform(n),
                   EdgeProperties{.src_port = static_cast<std::uint16_t>(e),
                                  .out_bytes = rng.uniform(1 << 20)});
  }
  const fs::path dir = fs::temp_directory_path() /
                       ("csb_shard_fuzz_" + std::to_string(::getpid()) + "_" +
                        std::to_string(GetParam()));
  fs::remove_all(dir);
  ShardStore store(
      ShardStoreOptions{.directory = dir.string(), .shard_count = 2});
  replay_graph_into(graph, store, 0);
  const auto read_bytes = [](const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
  };
  const char* const names[] = {"manifest.json", "edges-0000.bin",
                               "edges-0001.bin", "props-0000.bin",
                               "props-0001.bin"};
  int rejected = 0;
  for (int i = 0; i < 200; ++i) {
    const fs::path victim = dir / names[rng.uniform(std::size(names))];
    const std::string pristine = read_bytes(victim);
    std::string mutant = pristine;
    if (victim.extension() == ".json") {
      if (rng.uniform(2) == 0) {
        mutant[rng.uniform(mutant.size())] ^=
            static_cast<char>(1 + rng.uniform(255));
      } else {
        mutant.resize(rng.uniform(mutant.size()));
      }
    } else {
      const std::uint64_t word = 1 + rng.uniform(~0ULL);
      const std::size_t at = 8 * rng.uniform(mutant.size() / 8);
      for (std::size_t b = 0; b < 8; ++b) {
        mutant[at + b] ^= static_cast<char>(word >> (8 * b));
      }
    }
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << mutant;
    try {
      const ShardStoreReader reader(dir.string());
      reader.verify();
      (void)reader.to_property_graph();
    } catch (const CsbError& error) {
      EXPECT_NE(std::string(error.what()).find(dir.string()),
                std::string::npos)
          << i << " (" << victim.filename() << "): " << error.what();
      ++rejected;
    }
    std::ofstream(victim, std::ios::binary | std::ios::trunc) << pristine;
  }
  EXPECT_EQ(ShardStoreReader(dir.string()).to_property_graph(), graph);
  fs::remove_all(dir);
  EXPECT_GT(rejected, 0);
}

// ------------------------------------------- mutation fuzz of valid input
//
// Random bytes rarely get past a magic number or a JSON brace, so these
// loops start from a valid input and mutate it. Every mutant must either
// load or throw a CsbError (the binary loaders' naming the source).

/// `valid` with one to three 8-byte words XORed at random (unaligned)
/// offsets, with either random bits or a single bit (which turns a count
/// into a huge one), and half the time truncated.
std::string mutate_words(Rng& rng, const std::string& valid) {
  std::string mutant = valid;
  const std::uint64_t flips = 1 + rng.uniform(3);
  for (std::uint64_t f = 0; f < flips && mutant.size() >= 8; ++f) {
    const std::uint64_t word =
        rng.bernoulli(0.5) ? rng() : 1ULL << rng.uniform(64);
    const std::size_t at = rng.uniform(mutant.size() - 7);
    for (std::size_t b = 0; b < 8; ++b) {
      mutant[at + b] ^= static_cast<char>(word >> (8 * b));
    }
  }
  if (rng.bernoulli(0.5)) mutant.resize(rng.uniform(mutant.size() + 1));
  return mutant;
}

/// `valid` with one to four edits: a byte replaced by one of `alphabet`,
/// a short range deleted or duplicated, or the tail cut off.
std::string mutate_text(Rng& rng, const std::string& valid,
                        std::string_view alphabet) {
  std::string mutant = valid;
  const std::uint64_t edits = 1 + rng.uniform(4);
  for (std::uint64_t e = 0; e < edits && !mutant.empty(); ++e) {
    const std::size_t at = rng.uniform(mutant.size());
    const std::size_t len =
        1 + rng.uniform(std::min<std::size_t>(16, mutant.size() - at));
    switch (rng.uniform(4)) {
      case 0: mutant[at] = alphabet[rng.uniform(alphabet.size())]; break;
      case 1: mutant.erase(at, len); break;
      case 2: mutant.insert(at, mutant.substr(at, len)); break;
      default: mutant.resize(at); break;
    }
  }
  return mutant;
}

PropertyGraph fuzz_property_graph(Rng& rng) {
  const std::uint64_t n = 32;
  PropertyGraph graph(n);
  for (std::uint64_t e = 0; e < 300; ++e) {
    graph.add_edge(
        rng.uniform(n), rng.uniform(n),
        EdgeProperties{
            .protocol = e % 3 == 0 ? Protocol::kUdp : Protocol::kTcp,
            .src_port = static_cast<std::uint16_t>(1024 + rng.uniform(8)),
            .dst_port = static_cast<std::uint16_t>(rng.uniform(4) * 80),
            .duration_ms = static_cast<std::uint32_t>(rng.uniform(5000)),
            .out_bytes = rng.uniform(1 << 16),
            .in_bytes = rng.uniform(1 << 12),
            .out_pkts = static_cast<std::uint32_t>(1 + rng.uniform(20)),
            .in_pkts = static_cast<std::uint32_t>(rng.uniform(20)),
            .state = e % 3 == 0 ? ConnState::kNone : ConnState::kSF});
  }
  return graph;
}

TEST_P(FuzzSeedTest, ProfileMutantsThrowNamingTheSourceOrLoad) {
  Rng rng(GetParam() ^ 0x9f1);
  std::stringstream out;
  SeedProfile::analyze(fuzz_property_graph(rng)).save(out);
  const std::string valid = out.str();
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string mutant = mutate_words(rng, valid);
    try {
      (void)SeedProfile::load(byte_span(mutant), "fuzz.profile");
    } catch (const CsbError& error) {
      EXPECT_EQ(std::string(error.what()).rfind("fuzz.profile@", 0), 0u)
          << i << ": " << error.what();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_P(FuzzSeedTest, GraphBinaryMutantsThrowNamingTheSourceOrLoad) {
  Rng rng(GetParam() ^ 0x6b1);
  std::stringstream out;
  save_binary(fuzz_property_graph(rng), out);
  const std::string valid = out.str();
  int rejected = 0;
  for (int i = 0; i < 300; ++i) {
    const std::string mutant = mutate_words(rng, valid);
    try {
      (void)load_binary(byte_span(mutant), "fuzz.bin");
    } catch (const CsbError& error) {
      EXPECT_EQ(std::string(error.what()).rfind("fuzz.bin@", 0), 0u)
          << i << ": " << error.what();
      ++rejected;
    }
  }
  EXPECT_GT(rejected, 0);
}

TEST_P(FuzzSeedTest, JsonMutantsThrowOrParse) {
  Rng rng(GetParam() ^ 0x750);
  const std::string valid =
      R"({"format":"csb.shards.v2","vertices":64,"edges":400,)"
      R"("seed":"00000000000000ff","with_properties":true,)"
      R"("shards":[{"file":"edges-0000.bin","first_edge":0,"edges":2e2},)"
      R"({"file":"e\"1\\A\n","x":[-1.5e-3,null,false,[[]],{}]}]})";
  ASSERT_NO_THROW((void)parse_json(valid));
  for (int i = 0; i < 2000; ++i) {
    const std::string mutant =
        mutate_text(rng, valid, "{}[]\":,.-+eE0123456789\\u nulltrfase");
    try {
      (void)parse_json(mutant).dump();
    } catch (const CsbError&) {
    }
  }
}

TEST_P(FuzzSeedTest, TraceNdjsonMutantsThrowOrParse) {
  Rng rng(GetParam() ^ 0x7ace);
  TraceRecorder recorder;
  recorder.set_meta("tool", "fuzz");
  const std::uint64_t outer = recorder.begin_phase("generate");
  const std::uint64_t inner = recorder.begin_phase("properties");
  recorder.end_phase(inner);
  recorder.end_phase(outer);
  recorder.record_counter("edges", 400);
  (void)recorder.record_memory("end");
  std::stringstream out;
  recorder.write_ndjson(out);
  const std::string valid = out.str();
  {
    std::stringstream in(valid);
    ASSERT_EQ(parse_trace_ndjson(in).spans.size(), 2u);
  }
  for (int i = 0; i < 1000; ++i) {
    const std::string mutant =
        mutate_text(rng, valid, "{}[]\":,.-+e0123456789\n ");
    for (const bool collect : {false, true}) {
      std::stringstream in(mutant);
      std::vector<std::string> errors;
      try {
        (void)parse_trace_ndjson(in, collect ? &errors : nullptr);
      } catch (const CsbError&) {
      }
    }
  }
}

TEST_P(FuzzSeedTest, LintLexerNeverThrowsOnMutatedSource) {
  Rng rng(GetParam() ^ 0x1e4);
  const std::string valid = R"cpp(#include <vector>
// line comment with "quotes" and 'ticks'
/* block
   comment */ namespace csb {
#define TWICE(x) ((x) + \
                  (x))
constexpr auto kRaw = R"x(raw ")" string)x";
int f(int a) { return a > 1'000 ? 'c' : "s\"q"[0] + 0x1fULL + .5e-3f; }
template <typename T> struct S { T t{}; };  // trailing
}  // namespace csb
)cpp";
  for (int i = 0; i < 2000; ++i) {
    const std::string mutant =
        mutate_text(rng, valid, "\"'/*\\\n#R()x{}<>:;0123456789.e");
    std::vector<lint::Token> tokens;
    ASSERT_NO_THROW(tokens = lint::tokenize(mutant)) << i;
    for (std::size_t t = 1; t < tokens.size(); ++t) {
      ASSERT_LE(tokens[t - 1].line, tokens[t].line) << i;
    }
  }
}

INSTANTIATE_TEST_SUITE_P(Seeds, FuzzSeedTest,
                         ::testing::Values(1, 2, 3, 4));

// Regression rows for inputs the mutation loops above cannot reach at
// their sizes but that crashed a reader.

TEST(RobustnessTest, DeeplyNestedJsonThrowsInsteadOfOverflowingTheStack) {
  // 10^6 open brackets recursed once per level and overflowed the stack.
  EXPECT_THROW((void)parse_json(std::string(1'000'000, '[')), CsbError);
  std::stringstream ndjson(std::string(1'000'000, '{') + "\n");
  EXPECT_THROW((void)parse_trace_ndjson(ndjson), CsbError);
  std::string nested;
  for (int i = 0; i < 200; ++i) nested += "[";
  for (int i = 0; i < 200; ++i) nested += "]";
  EXPECT_NO_THROW((void)parse_json(nested));  // moderate nesting still parses
}

TEST(RobustnessTest, ValidIpRoundTripUnderFuzzGrammar) {
  // Sanity companion to the fuzz test: well-formed inputs still parse.
  Rng rng(9);
  for (int i = 0; i < 500; ++i) {
    const auto ip = static_cast<std::uint32_t>(rng.uniform(1ULL << 32));
    EXPECT_EQ(ip_from_string(ip_to_string(ip)), ip);
  }
}

}  // namespace
}  // namespace csb
