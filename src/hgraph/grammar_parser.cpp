#include "hgraph/grammar_parser.hpp"

#include <cctype>
#include <string>
#include <vector>

namespace fem2::hgraph {

namespace {

enum class TokKind {
  Ident,     // letters, digits, underscore (starting with letter or _)
  Defines,   // ::=
  LBrace,    // {
  RBrace,    // }
  Comma,     // ,
  Colon,     // :
  Pipe,      // |
  Question,  // ?
  Star,      // *
  IndexedStar,  // [*]
  At,        // @
  Ellipsis,  // ...
  End,
};

struct Token {
  TokKind kind;
  std::string text;
  SourceLoc loc;
};

class Lexer {
 public:
  explicit Lexer(std::string_view text) : text_(text) {}

  std::vector<Token> lex() {
    std::vector<Token> out;
    while (pos_ < text_.size()) {
      const char c = text_[pos_];
      if (c == '\n') {
        ++line_;
        ++pos_;
        line_start_ = pos_;
        continue;
      }
      if (std::isspace(static_cast<unsigned char>(c))) {
        ++pos_;
        continue;
      }
      if (c == '#') {
        while (pos_ < text_.size() && text_[pos_] != '\n') ++pos_;
        continue;
      }
      const SourceLoc loc = here();
      if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
        std::size_t start = pos_;
        while (pos_ < text_.size() &&
               (std::isalnum(static_cast<unsigned char>(text_[pos_])) ||
                text_[pos_] == '_'))
          ++pos_;
        out.push_back({TokKind::Ident,
                       std::string(text_.substr(start, pos_ - start)), loc});
        continue;
      }
      if (text_.substr(pos_).starts_with("::=")) {
        out.push_back({TokKind::Defines, "::=", loc});
        pos_ += 3;
        continue;
      }
      if (text_.substr(pos_).starts_with("[*]")) {
        out.push_back({TokKind::IndexedStar, "[*]", loc});
        pos_ += 3;
        continue;
      }
      if (text_.substr(pos_).starts_with("...")) {
        out.push_back({TokKind::Ellipsis, "...", loc});
        pos_ += 3;
        continue;
      }
      TokKind kind;
      switch (c) {
        case '{': kind = TokKind::LBrace; break;
        case '}': kind = TokKind::RBrace; break;
        case ',': kind = TokKind::Comma; break;
        case ':': kind = TokKind::Colon; break;
        case '|': kind = TokKind::Pipe; break;
        case '?': kind = TokKind::Question; break;
        case '*': kind = TokKind::Star; break;
        case '@': kind = TokKind::At; break;
        default:
          throw GrammarParseError("grammar lex error: unexpected '" +
                                  std::string(1, c) + "' at " +
                                  loc.to_string());
      }
      out.push_back({kind, std::string(1, c), loc});
      ++pos_;
    }
    out.push_back({TokKind::End, "", here()});
    return out;
  }

 private:
  SourceLoc here() const { return {line_, pos_ - line_start_ + 1}; }

  std::string_view text_;
  std::size_t pos_ = 0;
  std::size_t line_ = 1;
  std::size_t line_start_ = 0;
};

class Parser {
 public:
  explicit Parser(std::vector<Token> tokens) : tokens_(std::move(tokens)) {}

  Grammar parse() {
    Grammar g;
    while (peek().kind != TokKind::End) {
      const Token name = expect(TokKind::Ident, "rule name");
      expect(TokKind::Defines, "'::='");
      while (true) {
        const SourceLoc alt_loc = peek().loc;
        g.add_alternative(name.text, parse_alternative(), alt_loc);
        if (peek().kind != TokKind::Pipe) break;
        advance();
      }
    }
    if (const auto v = g.validate(); !v) throw GrammarParseError(v.error);
    return g;
  }

 private:
  Alternative parse_alternative() {
    if (peek().kind == TokKind::LBrace) return parse_composite();
    const Token name = expect(TokKind::Ident, "atom kind or nonterminal");
    if (const auto kind = atom_kind_from_name(name.text)) return *kind;
    return NonterminalRef{name.text};
  }

  Composite parse_composite() {
    expect(TokKind::LBrace, "'{'");
    Composite comp;
    bool first = true;
    while (peek().kind != TokKind::RBrace) {
      if (!first) expect(TokKind::Comma, "','");
      first = false;
      if (peek().kind == TokKind::Ellipsis) {
        advance();
        comp.open = true;
        continue;
      }
      if (peek().kind == TokKind::At) {
        advance();
        const Token kind = expect(TokKind::Ident, "atom kind after '@'");
        const auto k = atom_kind_from_name(kind.text);
        if (!k) {
          throw GrammarParseError("grammar parse error: '" + kind.text +
                                  "' is not an atom kind at " +
                                  kind.loc.to_string());
        }
        comp.own_atom = *k;
        continue;
      }
      ArcPattern pat;
      const Token label = expect(TokKind::Ident, "arc label");
      for (const auto& prior : comp.arcs) {
        if (prior.label == label.text) {
          throw GrammarParseError(
              "grammar parse error: duplicate arc label '" + label.text +
              "' in composite at " + label.loc.to_string() +
              " (first declared at " + prior.loc.to_string() + ")");
        }
      }
      pat.label = label.text;
      pat.loc = label.loc;
      switch (peek().kind) {
        case TokKind::Question:
          pat.multiplicity = Multiplicity::Optional;
          advance();
          break;
        case TokKind::Star:
          pat.multiplicity = Multiplicity::Star;
          advance();
          break;
        case TokKind::IndexedStar:
          pat.multiplicity = Multiplicity::IndexedFamily;
          advance();
          break;
        default:
          pat.multiplicity = Multiplicity::One;
      }
      expect(TokKind::Colon, "':'");
      pat.nonterminal = expect(TokKind::Ident, "arc target nonterminal").text;
      comp.arcs.push_back(std::move(pat));
    }
    expect(TokKind::RBrace, "'}'");
    return comp;
  }

  const Token& peek() const { return tokens_[pos_]; }
  void advance() { ++pos_; }

  Token expect(TokKind kind, std::string_view what) {
    if (peek().kind != kind) {
      throw GrammarParseError("grammar parse error: expected " +
                              std::string(what) + ", found '" + peek().text +
                              "' at " + peek().loc.to_string());
    }
    Token t = peek();
    advance();
    return t;
  }

  std::vector<Token> tokens_;
  std::size_t pos_ = 0;
};

}  // namespace

Grammar parse_grammar(std::string_view text) {
  return Parser(Lexer(text).lex()).parse();
}

}  // namespace fem2::hgraph
