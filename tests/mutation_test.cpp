// Seeded mutational tests of the model and result text parsers.  Valid
// documents are mutated with byte flips, truncations, splices of two
// documents and number lies (huge and negative indices, overflow,
// subnormals, signs, hex, empty tokens, NUL bytes, CRLF line ends).  Every
// case must end in a SerializeError, or in a parse whose output
// re-serializes and parses back to the same text; any other exception
// fails, and a crash or hang fails the run.  Deterministic: support::Rng
// with fixed seeds.
#include <gtest/gtest.h>

#include <exception>
#include <functional>
#include <string>
#include <string_view>
#include <vector>

#include "appvm/serialize.hpp"
#include "fem/analysis.hpp"
#include "fem/mesh.hpp"
#include "support/rng.hpp"
#include "support/strings.hpp"

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
