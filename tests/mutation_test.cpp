// Seeded mutational tests of the model and result text parsers, of the
// H-graph grammar parser, of the write-ahead log's frame decoder and of
// the command lexer and parser.
//
// Valid documents are mutated with byte flips, truncations, splices of two
// documents and number lies (huge and negative indices, overflow,
// subnormals, signs, hex, empty tokens, NUL bytes, CRLF line ends).  Every
// case must end in a SerializeError, or in a parse whose output
// re-serializes and parses back to the same text.
//
// The six grammar texts in spec (the five layers and the transform
// grammar) are mutated with byte flips, dropped and duplicated tokens and
// lines spliced across grammars, and every prefix of one grammar is
// parsed.  hgraph::parse_grammar must throw GrammarParseError or return a
// grammar whose validate() passes, with no allocation larger than a fixed
// multiple of the text.
//
// A valid log is mutated with byte flips, lies in frame and string
// lengths, changed type bytes and truncation, each mutated frame under a
// recomputed CRC-32C.  Wal::replay and an Engine recovery must end in a
// db::Error, or in records that re-encode to exactly the bytes they came
// from; neither may make an allocation the honest log does not need.
//
// One valid command line per verb and option is mutated with byte flips,
// dropped and duplicated tokens, tokens spliced across lines and numbers
// swapped for edge values (0, -1, 2^64 - 1, 1e308, nan, inf, hex, empty).
// Each mutant runs as one line on a fresh console Session holding the 8x4
// plate (save and open only on a served one) and on a fresh served session
// through Server::call.  It must end in a Response, with no allocation
// larger than the largest one of building the largest mesh the node limit
// admits.
//
// Any other exception fails, and a crash or hang fails the run.
// Deterministic: support::Rng with fixed seeds.
#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cctype>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <iterator>
#include <memory>
#include <new>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

#include "appvm/command.hpp"
#include "appvm/serialize.hpp"
#include "db/crc32.hpp"
#include "db/engine.hpp"
#include "db/wal.hpp"
#include "fem/analysis.hpp"
#include "fem/mesh.hpp"
#include "hgraph/grammar_parser.hpp"
#include "serve/server.hpp"
#include "spec/layers.hpp"
#include "spec/transforms.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

// The largest single allocation while g_watch_allocations is set.  Every
// form of the global operator new/delete is replaced, so memory from any
// form goes back through the matching one.
namespace {

std::atomic<bool> g_watch_allocations{false};
std::atomic<std::size_t> g_largest_allocation{0};

void* watched_alloc(std::size_t n, std::size_t align) noexcept {
  if (g_watch_allocations.load(std::memory_order_relaxed)) {
    std::size_t seen = g_largest_allocation.load(std::memory_order_relaxed);
    while (n > seen && !g_largest_allocation.compare_exchange_weak(seen, n)) {
    }
  }
  if (n == 0) n = 1;
  if (align <= alignof(std::max_align_t)) return std::malloc(n);
  return std::aligned_alloc(align, (n + align - 1) / align * align);
}

void* watched_new(std::size_t n, std::size_t align) {
  void* p = watched_alloc(n, align);
  if (p == nullptr) throw std::bad_alloc();
  return p;
}

/// Shows control bytes, so a failing case can be read and replayed.
std::string escaped(const std::string& text) {
  std::string out;
  for (const char c : text) {
    const auto u = static_cast<unsigned char>(c);
    if (c == '\n') {
      out += "\\n\n";
    } else if (u < 0x20 || u >= 0x7f) {
      const char* hex = "0123456789abcdef";
      out += "\\x";
      out.push_back(hex[u >> 4]);
      out.push_back(hex[u & 15]);
    } else {
      out.push_back(c);
    }
  }
  return out;
}

}  // namespace

void* operator new(std::size_t n) { return watched_new(n, 0); }
void* operator new[](std::size_t n) { return watched_new(n, 0); }
void* operator new(std::size_t n, std::align_val_t a) {
  return watched_new(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a) {
  return watched_new(n, static_cast<std::size_t>(a));
}
void* operator new(std::size_t n, const std::nothrow_t&) noexcept {
  return watched_alloc(n, 0);
}
void* operator new[](std::size_t n, const std::nothrow_t&) noexcept {
  return watched_alloc(n, 0);
}
void* operator new(std::size_t n, std::align_val_t a,
                   const std::nothrow_t&) noexcept {
  return watched_alloc(n, static_cast<std::size_t>(a));
}
void* operator new[](std::size_t n, std::align_val_t a,
                     const std::nothrow_t&) noexcept {
  return watched_alloc(n, static_cast<std::size_t>(a));
}
void operator delete(void* p) noexcept { std::free(p); }
void operator delete[](void* p) noexcept { std::free(p); }
void operator delete(void* p, std::size_t) noexcept { std::free(p); }
void operator delete[](void* p, std::size_t) noexcept { std::free(p); }
void operator delete(void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete[](void* p, std::align_val_t) noexcept { std::free(p); }
void operator delete(void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::size_t, std::align_val_t) noexcept {
  std::free(p);
}
void operator delete(void* p, const std::nothrow_t&) noexcept { std::free(p); }
void operator delete[](void* p, const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete(void* p, std::align_val_t,
                     const std::nothrow_t&) noexcept {
  std::free(p);
}
void operator delete[](void* p, std::align_val_t,
                       const std::nothrow_t&) noexcept {
  std::free(p);
}

namespace fem2::appvm {
namespace {

using Roundtrip = std::function<std::string(const std::string&)>;

/// Tokens that replace a number, an index or a key's value.
const std::string_view kLies[] = {
    "18446744073709551615", "18446744073709551616", "99999999999999999999",
    "-1", "-0", "0", "1e999", "-1e999", "1e-400", "-1e-400",
    "4.9406564584124654e-324", "1e-310", "+1", "+-1", "++1", "+", "-",
    "0x1p3", "0X1P-3", "", "nan", "-nan", "nan(7)", "inf", "-infinity",
    "1e", "1e+", ".", "1..2", "1,5", std::string_view("\0", 1), "7\r"};

std::vector<fem::StructureModel> sample_models() {
  std::vector<fem::StructureModel> models;
  fem::PlateMeshOptions plate;
  plate.nx = 3;
  plate.ny = 2;
  models.push_back(fem::make_cantilever_plate(plate, 10.0));
  plate.element = fem::ElementType::Tri3;
  plate.nx = 2;
  models.push_back(fem::make_cantilever_plate(plate, 10.0));
  fem::TrussOptions truss;
  truss.bays = 2;
  models.push_back(fem::make_truss_bridge(truss, 5.0));
  fem::FrameOptions frame;
  frame.segments = 3;
  models.push_back(fem::make_cantilever_beam(frame, 2.0));
  return models;
}

std::vector<std::string> model_corpus() {
  std::vector<std::string> docs;
  for (const auto& m : sample_models()) docs.push_back(serialize_model(m));
  docs.push_back(
      "# hand-written\r\n\r\nmodel  m\r\nnode 0 0\r\nnode +1 -0\r\n"
      "material s E=1e3 nu=0.25 rho=1\r\nelement bar2 0 1 mat=0\r\n"
      "constraint 0 0 0\r\nload pull 1 0 1e-310\r\n");
  return docs;
}

std::vector<std::string> results_corpus() {
  std::vector<std::string> docs;
  const char* load_sets[] = {"tip-shear", "tip-shear", "deck", "tip"};
  const auto models = sample_models();
  for (std::size_t i = 0; i < models.size(); ++i)
    docs.push_back(serialize_results(fem::analyze(models[i], load_sets[i])));
  docs.push_back(
      "results extra\nmethod  spaced  name \nconverged 7\niterations 0\n"
      "residual nan\n# note\ndisplacements 1 inf -0 1e-310\n"
      "peak 3 1 2 3 4\n");
  return docs;
}

/// One random mutation of corpus[which].
std::string mutate(const std::vector<std::string>& corpus, std::size_t which,
                   support::Rng& rng) {
  std::string doc = corpus[which];
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  switch (rng.next_below(6)) {
    case 0:  // byte flips
      for (std::size_t k = 1 + pick(4); k > 0; --k)
        doc[pick(doc.size())] = static_cast<char>(rng.next_below(256));
      return doc;
    case 1:  // truncation
      return doc.substr(0, pick(doc.size() + 1));
    case 2: {  // splice of two documents
      const std::string& other = corpus[pick(corpus.size())];
      return doc.substr(0, pick(doc.size() + 1)) +
             other.substr(pick(other.size() + 1));
    }
    case 3: {  // CRLF line ends and a NUL byte
      std::string out;
      for (const char c : doc) {
        if (c == '\n' && rng.chance(0.5)) out.push_back('\r');
        out.push_back(c);
      }
      if (rng.chance(0.5)) out.insert(pick(out.size() + 1), 1, '\0');
      return out;
    }
    default: {  // number lies, one to three of them
      std::vector<std::string_view> tokens;
      for (std::size_t k = 1 + pick(3); k > 0; --k) {
        support::split_ws(doc, tokens);
        const std::string_view token = tokens[pick(tokens.size())];
        std::size_t start = static_cast<std::size_t>(token.data() - doc.data());
        const std::size_t end = start + token.size();
        const auto eq = doc.find('=', start);
        if (eq < end) start = eq + 1;
        doc.replace(start, end - start, kLies[pick(std::size(kLies))]);
      }
      return doc;
    }
  }
}

struct Outcomes {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Runs one case: a SerializeError, or a parse whose re-serialized text
/// parses back to itself.  Returns false after recording a failure.
bool check(const std::string& text, const Roundtrip& roundtrip,
           Outcomes& outcomes) {
  std::string first;
  try {
    first = roundtrip(text);
  } catch (const SerializeError&) {
    ++outcomes.rejected;
    return true;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "threw " << e.what() << " on:\n" << escaped(text);
    return false;
  }
  ++outcomes.parsed;
  try {
    const std::string second = roundtrip(first);
    EXPECT_EQ(second, first) << "did not round-trip:\n" << escaped(text);
    return second == first;
  } catch (const std::exception& e) {
    ADD_FAILURE() << "re-parse threw " << e.what() << " on:\n"
                  << escaped(first) << "from:\n" << escaped(text);
    return false;
  }
}

void run_mutations(const std::vector<std::string>& corpus,
                   const Roundtrip& roundtrip, std::uint64_t seed) {
  Outcomes outcomes;
  // Every document, and every prefix of it.
  for (const auto& doc : corpus)
    for (std::size_t cut = 0; cut <= doc.size(); ++cut)
      if (!check(doc.substr(0, cut), roundtrip, outcomes)) return;
  support::Rng rng(seed);
  for (int i = 0; i < 20'000; ++i) {
    const std::string text = mutate(corpus, rng.next_below(corpus.size()), rng);
    if (!check(text, roundtrip, outcomes)) return;
  }
  // Both outcomes must be common, or the mutations test little.
  EXPECT_GT(outcomes.parsed, 2'000u);
  EXPECT_GT(outcomes.rejected, 2'000u);
}

TEST(Mutation, ModelTextFailsCleanlyOrRoundTrips) {
  run_mutations(
      model_corpus(),
      [](const std::string& text) { return serialize_model(parse_model(text)); },
      0x6d6f64656cULL);
}

TEST(Mutation, ResultsTextFailsCleanlyOrRoundTrips) {
  run_mutations(
      results_corpus(),
      [](const std::string& text) {
        return serialize_results(parse_results(text));
      },
      0x726573756c74ULL);
}

}  // namespace
}  // namespace fem2::appvm

namespace fem2::hgraph {
namespace {

/// The grammar texts in spec: the five layers and the transform grammar.
std::vector<std::string> grammar_corpus() {
  return {std::string(spec::appvm_grammar_text()),
          std::string(spec::db_grammar_text()),
          std::string(spec::navm_grammar_text()),
          std::string(spec::sysvm_grammar_text()),
          std::string(spec::hw_grammar_text()),
          spec::appvm_transform_grammar_text()};
}

bool is_ident(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/// [begin, end) of each token of a grammar text, as the grammar lexer
/// reads them: identifiers, "::=", "[*]", "..." and single punctuation.
std::vector<std::pair<std::size_t, std::size_t>> token_spans(
    std::string_view text) {
  std::vector<std::pair<std::size_t, std::size_t>> spans;
  std::size_t i = 0;
  while (i < text.size()) {
    if (std::isspace(static_cast<unsigned char>(text[i]))) {
      ++i;
      continue;
    }
    if (text[i] == '#') {
      while (i < text.size() && text[i] != '\n') ++i;
      continue;
    }
    std::size_t end = i + 1;
    if (is_ident(text[i])) {
      while (end < text.size() && is_ident(text[end])) ++end;
    } else {
      for (const std::string_view multi : {"::=", "[*]", "..."})
        if (text.substr(i).starts_with(multi)) end = i + multi.size();
    }
    spans.emplace_back(i, end);
    i = end;
  }
  return spans;
}

/// The text's lines, each with its '\n'.
std::vector<std::string> lines_of(const std::string& text) {
  std::vector<std::string> lines;
  std::size_t start = 0;
  while (start < text.size()) {
    const std::size_t end = std::min(text.find('\n', start), text.size());
    lines.push_back(text.substr(start, end + 1 - start));
    start = end + 1;
  }
  return lines;
}

/// One random mutation of corpus[which].
std::string mutate_grammar(const std::vector<std::string>& corpus,
                           std::size_t which, support::Rng& rng) {
  std::string text = corpus[which];
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  switch (rng.next_below(4)) {
    case 0:  // byte flips
      for (std::size_t k = 1 + pick(4); k > 0; --k)
        text[pick(text.size())] = static_cast<char>(rng.next_below(256));
      return text;
    case 1:  // dropped tokens
      for (std::size_t k = 1 + pick(3); k > 0; --k) {
        const auto spans = token_spans(text);
        if (spans.empty()) break;
        const auto [begin, end] = spans[pick(spans.size())];
        text.erase(begin, end - begin);
      }
      return text;
    case 2:  // duplicated tokens, glued on or apart
      for (std::size_t k = 1 + pick(3); k > 0; --k) {
        const auto spans = token_spans(text);
        const auto [begin, end] = spans[pick(spans.size())];
        const std::string token = text.substr(begin, end - begin);
        text.insert(end, rng.chance(0.5) ? " " + token : token);
      }
      return text;
    default: {  // lines of another grammar spliced in
      const auto lines = lines_of(text);
      const auto other = lines_of(corpus[pick(corpus.size())]);
      const std::size_t cut = pick(lines.size() + 1);
      const std::size_t from = pick(other.size());
      const std::size_t to = from + 1 + pick(other.size() - from);
      std::string out;
      for (std::size_t i = 0; i < cut; ++i) out += lines[i];
      for (std::size_t i = from; i < to; ++i) out += other[i];
      for (std::size_t i = cut + pick(2); i < lines.size(); ++i)
        out += lines[i];
      return out;
    }
  }
}

struct GrammarOutcomes {
  std::size_t parsed = 0;
  std::size_t rejected = 0;
};

/// Parses `text`: a GrammarParseError, or a grammar whose validate()
/// passes.  Returns the largest allocation the parse made.
std::size_t parse_case(const std::string& text, GrammarOutcomes& outcomes) {
  g_largest_allocation = 0;
  g_watch_allocations = true;
  try {
    const Grammar grammar = parse_grammar(text);
    g_watch_allocations = false;
    const ConformanceResult valid = grammar.validate();
    EXPECT_TRUE(valid.ok) << valid.error << " on:\n" << escaped(text);
    ++outcomes.parsed;
  } catch (const GrammarParseError&) {
    g_watch_allocations = false;
    ++outcomes.rejected;
  } catch (const std::exception& e) {
    g_watch_allocations = false;
    ADD_FAILURE() << "threw " << e.what() << " on:\n" << escaped(text);
  }
  return g_largest_allocation;
}

/// The most one allocation of a parse may take for a text of n bytes: a
/// token vector of at most n + 1 tokens (capacity doubled), or a message
/// quoting the text.
std::size_t allocation_bound(std::size_t n) { return 128 * (n + 16); }

TEST(GrammarMutation, ParseFailsCleanlyOrValidates) {
  const std::vector<std::string> corpus = grammar_corpus();
  GrammarOutcomes outcomes;
  const auto run = [&](const std::string& text) {
    EXPECT_LE(parse_case(text, outcomes), allocation_bound(text.size()))
        << escaped(text);
    return !::testing::Test::HasFailure();
  };
  for (const auto& text : corpus) ASSERT_TRUE(run(text));
  ASSERT_EQ(outcomes.parsed, corpus.size());
  // Every prefix of the database layer's grammar.
  for (std::size_t cut = 0; cut < corpus[1].size(); ++cut)
    if (!run(corpus[1].substr(0, cut))) return;
  support::Rng rng(0x6772616d);
  for (int i = 0; i < 10'000; ++i) {
    const std::string text =
        mutate_grammar(corpus, rng.next_below(corpus.size()), rng);
    if (!run(text)) {
      ADD_FAILURE() << "case " << i;
      return;
    }
  }
  // Both outcomes must be common, or the mutations test little.
  EXPECT_GT(outcomes.parsed, 1'000u);
  EXPECT_GT(outcomes.rejected, 2'000u);
}

}  // namespace
}  // namespace fem2::hgraph

namespace fem2::db {
namespace {

WalRecord wal_record(RecordType type, std::uint64_t txn, std::string name = "",
                     std::string kind = "", std::string value = "",
                     std::uint64_t revision = 0) {
  WalRecord r;
  r.type = type;
  r.txn = txn;
  r.name = std::move(name);
  r.kind = std::move(kind);
  r.value = std::move(value);
  r.revision = revision;
  return r;
}

/// Committed, aborted and open transactions over every record type, with
/// an empty name, kind and value among the strings.
std::vector<WalRecord> wal_corpus() {
  fem::TrussOptions truss;
  truss.bays = 2;
  const std::string model =
      appvm::serialize_model(fem::make_truss_bridge(truss, 5.0));
  using T = RecordType;
  return {wal_record(T::TxnBegin, 1),
          wal_record(T::Put, 1, "bridge", "model", model, 1),
          wal_record(T::Put, 1, "bridge/results", "results", "peak 3", 2),
          wal_record(T::TxnCommit, 1),
          wal_record(T::TxnBegin, 2),
          wal_record(T::Erase, 2, "bridge/results", "", "", 3),
          wal_record(T::TxnAbort, 2),
          wal_record(T::TxnBegin, 3),
          wal_record(T::Put, 3, "", "", "", 4),
          wal_record(T::Erase, 3, "bridge", "", "", 5),
          wal_record(T::TxnCommit, 3),
          wal_record(T::TxnBegin, 4),
          wal_record(T::Put, 4, "open", "model", "x", 6)};
}

std::uint32_t get_u32(const std::string& log, std::size_t at) {
  std::uint32_t v = 0;
  for (int i = 0; i < 4; ++i)
    v |= static_cast<std::uint32_t>(static_cast<std::uint8_t>(log[at + i]))
         << (8 * i);
  return v;
}

void put_u32(std::string& log, std::size_t at, std::uint32_t v) {
  for (int i = 0; i < 4; ++i)
    log[at + i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

/// A lie to tell in place of the length `honest`.
std::uint32_t length_lie(std::uint32_t honest, support::Rng& rng) {
  const std::uint32_t lies[] = {0u,          1u,          honest - 1,
                                honest + 1,  honest * 2,  0x7fffffffu,
                                0x80000000u, 0xffffffffu, 17u};
  if (rng.chance(0.3))
    return static_cast<std::uint32_t>(rng.next_below(2ull * honest + 2));
  return lies[rng.next_below(std::size(lies))];
}

struct WalLog {
  std::string bytes;
  std::vector<std::size_t> frames;   ///< offset of each frame
  std::vector<std::size_t> strings;  ///< offset of each string length
};

WalLog encode_log(const std::vector<WalRecord>& records) {
  WalLog log;
  for (const auto& r : records) {
    const std::size_t at = log.bytes.size();
    log.frames.push_back(at);
    // Header, type byte and txn come before the first string.
    std::size_t field = at + 8 + 1 + 8;
    const std::string* fields[] = {&r.name, &r.kind, &r.value};
    const std::size_t count = r.type == RecordType::Put     ? 3
                              : r.type == RecordType::Erase ? 1
                                                            : 0;
    for (std::size_t f = 0; f < count; ++f) {
      log.strings.push_back(field);
      field += 4 + fields[f]->size();
    }
    log.bytes += encode_record(r);
  }
  return log;
}

/// Gives the frame at `at` the CRC of the bytes its length now covers.
void reseal(std::string& bytes, std::size_t at) {
  const std::uint32_t length = get_u32(bytes, at);
  if (bytes.size() - (at + 8) < length) return;  // runs past the end
  put_u32(bytes, at + 4,
          crc32c(std::string_view(bytes).substr(at + 8, length)));
}

/// One to three mutations of the log, each frame it touches resealed, and
/// sometimes a truncation after them.
std::string mutate_log(const WalLog& log, support::Rng& rng) {
  std::string bytes = log.bytes;
  const auto pick = [&rng](const std::vector<std::size_t>& v) {
    return v[rng.next_below(v.size())];
  };
  // The frame holding byte `at`.
  const auto frame_of = [&log](std::size_t at) {
    return *(std::upper_bound(log.frames.begin(), log.frames.end(), at) - 1);
  };
  for (std::size_t k = 1 + rng.next_below(3); k > 0; --k) {
    std::size_t frame = 0;
    switch (rng.next_below(4)) {
      case 0: {  // byte flips inside one frame's payload
        frame = pick(log.frames);
        const std::size_t length = get_u32(log.bytes, frame);
        for (std::size_t f = 1 + rng.next_below(3); f > 0; --f)
          bytes[frame + 8 + rng.next_below(length)] =
              static_cast<char>(rng.next_below(256));
        break;
      }
      case 1:  // a frame length
        frame = pick(log.frames);
        put_u32(bytes, frame, length_lie(get_u32(log.bytes, frame), rng));
        break;
      case 2: {  // a string length
        const std::size_t at = pick(log.strings);
        frame = frame_of(at);
        put_u32(bytes, at, length_lie(get_u32(log.bytes, at), rng));
        break;
      }
      default:  // the type byte: another type, or no type at all
        frame = pick(log.frames);
        bytes[frame + 8] = static_cast<char>(
            rng.chance(0.5) ? 1 + rng.next_below(5) : rng.next_below(256));
        break;
    }
    reseal(bytes, frame);
  }
  if (rng.chance(0.3)) bytes.resize(rng.next_below(bytes.size() + 1));
  return bytes;
}

struct WalOutcomes {
  std::size_t whole = 0;     ///< every byte replayed
  std::size_t torn = 0;      ///< a prefix replayed, the tail discarded
  std::size_t rejected = 0;  ///< a db::Error
};

class WalMutation : public ::testing::Test {
 protected:
  void SetUp() override {
    dir_ = std::filesystem::path(::testing::TempDir()) / "fem2_wal_mutation";
    std::filesystem::remove_all(dir_);
    std::filesystem::create_directories(dir_);
    path_ = (dir_ / "wal.f2db").string();
  }
  void TearDown() override { std::filesystem::remove_all(dir_); }

  void write_log(const std::string& bytes) {
    std::ofstream out(path_, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(), static_cast<std::streamsize>(bytes.size()));
  }

  std::string read_log() const {
    std::ifstream in(path_, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
  }

  /// Replays and recovers `bytes`; returns the largest allocation made
  /// by Wal::replay and the Engine's recovery.
  std::size_t run(const std::string& bytes, WalOutcomes& outcomes) {
    write_log(bytes);
    g_largest_allocation = 0;
    const auto watched = [](auto&& step) {
      g_watch_allocations = true;
      try {
        step();
      } catch (...) {
        g_watch_allocations = false;
        throw;
      }
      g_watch_allocations = false;
    };
    try {
      ReplayResult replayed;
      watched([&] { replayed = Wal::replay(path_); });
      EXPECT_EQ(replayed.total_bytes, bytes.size());
      EXPECT_LE(replayed.valid_bytes, replayed.total_bytes);
      std::string encoded;
      for (const auto& r : replayed.records) encoded += encode_record(r);
      EXPECT_EQ(encoded, bytes.substr(0, replayed.valid_bytes));
      ++(replayed.valid_bytes == bytes.size() ? outcomes.whole
                                              : outcomes.torn);
      EngineOptions options;
      options.directory = dir_.string();
      std::uint64_t discarded = 0;
      watched([&] { discarded = Engine(options).stats().recovery_discarded_bytes; });
      EXPECT_EQ(discarded, replayed.total_bytes - replayed.valid_bytes);
      // Recovery shears the torn tail and keeps the valid prefix.
      EXPECT_EQ(read_log(), encoded);
    } catch (const Error&) {
      ++outcomes.rejected;
    } catch (const std::exception& e) {
      ADD_FAILURE() << "threw " << e.what();
    }
    return g_largest_allocation;
  }

  std::filesystem::path dir_;
  std::string path_;
};

TEST_F(WalMutation, ReplayAndRecoveryFailCleanlyOrReEncode) {
  const WalLog log = encode_log(wal_corpus());
  WalOutcomes outcomes;
  // Decoded records and the engine's tables are larger in memory than on
  // disk, so the honest log's own largest allocation is the bound: no
  // lie in a length may raise it, and no mutant is longer than the log.
  const std::size_t honest = run(log.bytes, outcomes);
  ASSERT_EQ(outcomes.whole, 1u);
  const std::size_t bound = std::max(honest, log.bytes.size());
  for (std::size_t cut = 0; cut < log.bytes.size(); ++cut)
    ASSERT_LE(run(log.bytes.substr(0, cut), outcomes), bound) << "cut " << cut;
  support::Rng rng(0x77616c);
  for (int i = 0; i < 4'000; ++i) {
    const std::string bytes = mutate_log(log, rng);
    ASSERT_LE(run(bytes, outcomes), bound) << "case " << i;
    if (HasFailure()) {
      ADD_FAILURE() << "case " << i << " of " << bytes.size() << " bytes";
      return;
    }
  }
  // Mutants that decode whole, and ones that lose their tail, must both
  // be common, or the mutations test little.
  EXPECT_GT(outcomes.whole, 200u);
  EXPECT_GT(outcomes.torn, 2'000u);
}

}  // namespace
}  // namespace fem2::db

namespace fem2::appvm {
namespace {

/// One valid line per verb and option of the command language
/// (Session::help_text), for a session holding the 8x4 plate (kPlateSetup).
const char* const kCommandCorpus[] = {
    "help",
    "new model probe",
    "node 1.5 -2",
    "material steel E=200e9 nu=0.3 A=0.01 I=1e-4 t=0.01 rho=7800",
    "element bar 0 1 mat=0",
    "element beam2 0 9",
    "element tri 0 1 9",
    "element quad4 0 1 10 9 mat=0",
    "fix 3",
    "constrain 4 1 0.5",
    "constrain 5 0",
    "load wind 44 0 -10",
    "mesh plate nx=8 ny=4 width=2 height=1 load=5 tri",
    "mesh beam segments=4 length=1 load=5",
    "mesh truss bays=3 bay-width=1 height=1 load=100",
    "solve tip-shear",
    "solve tip-shear using skyline tol=1e-8",
    "solve tip-shear using cholesky",
    "solve tip-shear using cg tol=1e-10",
    "solve tip-shear using pcg",
    "solve tip-shear using gauss-seidel",
    "solve tip-shear using sor",
    "solve tip-shear using jacobi tol=1e-6",
    "modes 2",
    "modes",
    "stresses",
    "show model",
    "show displacements 3",
    "show displacements",
    "show peak",
    "store panel",
    "store panel if-rev=1",
    "store panel if-rev=head",
    "store results panel-results if-rev=0",
    "retrieve panel rev=1",
    "list",
    "query kind=model prefix=pa min-rev=1 max-rev=9 limit=5",
    "remove panel if-rev=1",
    "history panel",
    "begin",
    "commit",
    "abort",
    "save plate.fem2",
    "open plate.fem2",
};
constexpr std::size_t kCommandCount = std::size(kCommandCorpus);

/// What every mutant starts from: the 8x4 plate, solved and stored.
const char* const kPlateSetup[] = {"mesh plate nx=8 ny=4 load=5",
                                   "solve tip-shear", "store panel"};

/// What a numeric token is swapped for.
const char* const kEdgeNumbers[] = {
    "0", "-1", "18446744073709551615", "1e308", "nan", "inf", "0x10", ""};

std::string join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const auto& t : tokens) out += (out.empty() ? "" : " ") + t;
  return out;
}

/// One random mutation of kCommandCorpus[which].
std::string mutate_command(std::size_t which, support::Rng& rng) {
  const auto pick = [&rng](std::size_t n) {
    return static_cast<std::size_t>(rng.next_below(n));
  };
  std::string line = kCommandCorpus[which];
  std::vector<std::string> tokens = support::split_ws(line);
  switch (rng.next_below(5)) {
    case 0:  // byte flips
      for (std::size_t k = 1 + pick(4); k > 0; --k)
        line[pick(line.size())] = static_cast<char>(rng.next_below(256));
      return line;
    case 1:  // dropped tokens
      for (std::size_t k = 1 + pick(3); k > 0 && !tokens.empty(); --k)
        tokens.erase(tokens.begin() +
                     static_cast<std::ptrdiff_t>(pick(tokens.size())));
      break;
    case 2:  // duplicated tokens
      for (std::size_t k = 1 + pick(3); k > 0; --k) {
        const std::size_t at = pick(tokens.size());
        const std::string token = tokens[at];
        tokens.insert(tokens.begin() + static_cast<std::ptrdiff_t>(at), token);
      }
      break;
    case 3: {  // the head of this line spliced onto the tail of another
      const auto other = support::split_ws(kCommandCorpus[pick(kCommandCount)]);
      tokens.resize(pick(tokens.size() + 1));
      tokens.insert(tokens.end(),
                    other.begin() +
                        static_cast<std::ptrdiff_t>(pick(other.size() + 1)),
                    other.end());
      break;
    }
    default: {  // numbers swapped for edge values
      std::vector<std::size_t> numeric;
      for (std::size_t i = 0; i < tokens.size(); ++i) {
        const std::string& t = tokens[i];
        const std::size_t eq = t.find('=');
        if (support::parse_double(eq == std::string::npos ? t
                                                          : t.substr(eq + 1)))
          numeric.push_back(i);
      }
      if (numeric.empty()) numeric.push_back(pick(tokens.size()));
      for (std::size_t k = 1 + pick(2); k > 0; --k) {
        std::string& t = tokens[numeric[pick(numeric.size())]];
        const std::size_t eq = t.find('=');
        const std::string edge = kEdgeNumbers[pick(std::size(kEdgeNumbers))];
        t = eq == std::string::npos ? edge : t.substr(0, eq + 1) + edge;
      }
      break;
    }
  }
  return join(tokens);
}

struct CommandOutcomes {
  std::size_t ok = 0;
  std::size_t failed = 0;
};

/// Runs one line under the allocation watch; returns the largest single
/// allocation it made.  Any exception fails the test.
std::size_t watched(const std::function<Response()>& run,
                    const std::string& line, CommandOutcomes& outcomes) {
  g_largest_allocation = 0;
  g_watch_allocations = true;
  try {
    const Response response = run();
    g_watch_allocations = false;
    ++(response.ok ? outcomes.ok : outcomes.failed);
  } catch (const std::exception& e) {
    g_watch_allocations = false;
    ADD_FAILURE() << "threw " << e.what() << " on: " << escaped(line);
  }
  return g_largest_allocation;
}

/// `line` on a fresh console session holding the plate.
std::size_t run_console(const std::string& line, CommandOutcomes& outcomes) {
  Database db;
  Session session(db);
  for (const char* setup : kPlateSetup)
    EXPECT_TRUE(session.execute(setup).ok) << setup;
  return watched([&] { return session.execute(line); }, line, outcomes);
}

/// `line` on a fresh served session holding the plate, on a fresh server.
std::size_t run_served(const std::string& line, CommandOutcomes& outcomes) {
  serve::ServerOptions options;
  options.workers = 1;
  serve::Server server(std::make_shared<db::Engine>(), options);
  const auto opened = server.open_session("fuzz", "mutant");
  EXPECT_NE(opened.session, 0u);
  for (const char* setup : kPlateSetup)
    EXPECT_TRUE(server.call(opened.session, setup).ok) << setup;
  return watched([&] { return server.call(opened.session, line); }, line,
                 outcomes);
}

/// The largest single allocation of building the largest mesh of each kind
/// that Session::kMaxMeshNodes admits.
std::size_t largest_mesh_allocation() {
  std::size_t largest = 0;
  CommandOutcomes outcomes;
  for (const std::string line :
       {"mesh plate nx=49 ny=49", "mesh plate nx=49 ny=49 tri",
        "mesh beam segments=2499", "mesh truss bays=1249"}) {
    Database db;
    Session session(db);
    largest = std::max(
        largest,
        watched([&] { return session.execute(line); }, line, outcomes));
  }
  EXPECT_EQ(outcomes.ok, 4u);
  return largest;
}

// One command line per mutant isolates the lexer and the parser.  Work
// that takes two commands stays out of reach: `mesh truss bays=1249` then
// `solve deck using skyline` is an 11 s sparse solve with no work bound
// (ROADMAP item 3).
TEST(CommandMutation, EveryLineEndsInAResponse) {
  const std::size_t bound = largest_mesh_allocation();
  CommandOutcomes outcomes;
  const auto run = [&](const std::string& line) {
    const auto tokens = support::split_ws(support::trim(line));
    // Console sessions read and write host files; served ones refuse to.
    if (tokens.empty() || (tokens[0] != "save" && tokens[0] != "open")) {
      EXPECT_LE(run_console(line, outcomes), bound) << escaped(line);
    }
    EXPECT_LE(run_served(line, outcomes), bound) << escaped(line);
    return !::testing::Test::HasFailure();
  };
  for (const char* line : kCommandCorpus) ASSERT_TRUE(run(line)) << line;
  support::Rng rng(0x636d64);
  for (int i = 0; i < 2'000; ++i) {
    const std::string line = mutate_command(rng.next_below(kCommandCount), rng);
    if (!run(line)) {
      ADD_FAILURE() << "case " << i;
      return;
    }
  }
  // Both outcomes must be common, or the mutations test little.
  EXPECT_GT(outcomes.ok, 800u);
  EXPECT_GT(outcomes.failed, 800u);
}

}  // namespace
}  // namespace fem2::appvm
