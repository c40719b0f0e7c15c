#include "scn/parser.hpp"

#include <cctype>
#include <charconv>
#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string_view>
#include <utility>
#include <vector>

namespace aroma::scn {

namespace {

enum class Tok { kIdent, kNumber, kPunct, kEnd };

// Token text is a view into the source (or a literal for the end marker),
// so lexing copies no strings; the source outlives the parse.
struct Token {
  Tok kind = Tok::kEnd;
  std::string_view text;  // ident text, number spelling or punct character
  double number = 0.0;    // kNumber only
  int line = 1, col = 1;
};

class Lexer {
 public:
  Lexer(std::string_view src, const std::string& file)
      : src_(src), file_(file) {
    next();
  }

  const Token& peek() const { return tok_; }
  Token take() {
    const Token t = tok_;
    next();
    return t;
  }

  [[noreturn]] void fail(const std::string& msg, const Token& at) const {
    throw ScnError(file_ + ":" + std::to_string(at.line) + ":" +
                       std::to_string(at.col) + ": " + msg,
                   at.line, at.col);
  }

 private:
  void next() {
    skip_ws();
    tok_ = Token{};
    tok_.line = line_;
    tok_.col = col_;
    if (pos_ >= src_.size()) {
      tok_.kind = Tok::kEnd;
      tok_.text = "<end of file>";
      return;
    }
    const std::size_t start = pos_;
    const char c = src_[pos_];
    if (std::isalpha(static_cast<unsigned char>(c)) || c == '_') {
      tok_.kind = Tok::kIdent;
      while (pos_ < src_.size() &&
             (std::isalnum(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '_')) {
        advance();
      }
      tok_.text = src_.substr(start, pos_ - start);
      return;
    }
    if (std::isdigit(static_cast<unsigned char>(c)) ||
        (c == '.' && pos_ + 1 < src_.size() &&
         std::isdigit(static_cast<unsigned char>(src_[pos_ + 1])))) {
      tok_.kind = Tok::kNumber;
      while (pos_ < src_.size() &&
             (std::isdigit(static_cast<unsigned char>(src_[pos_])) ||
              src_[pos_] == '.' || src_[pos_] == 'e' || src_[pos_] == 'E' ||
              ((src_[pos_] == '+' || src_[pos_] == '-') && pos_ > start &&
               (src_[pos_ - 1] == 'e' || src_[pos_ - 1] == 'E')))) {
        advance();
      }
      tok_.text = src_.substr(start, pos_ - start);
      const char* first = tok_.text.data();
      const char* last = first + tok_.text.size();
      const auto [end, ec] = std::from_chars(first, last, tok_.number);
      if (end != last || (ec != std::errc() &&
                          ec != std::errc::result_out_of_range)) {
        fail("malformed number '" + std::string(tok_.text) + "'", tok_);
      }
      if (ec == std::errc::result_out_of_range) {
        // strtod's answer: +-inf on overflow, the rounded tiny value on
        // underflow.
        tok_.number = std::strtod(std::string(tok_.text).c_str(), nullptr);
      }
      return;
    }
    tok_.kind = Tok::kPunct;
    advance();
    tok_.text = src_.substr(start, 1);
  }

  void skip_ws() {
    while (pos_ < src_.size()) {
      const char c = src_[pos_];
      if (c == '#') {
        while (pos_ < src_.size() && src_[pos_] != '\n') advance();
      } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        advance();
      } else {
        break;
      }
    }
  }

  void advance() {
    if (src_[pos_] == '\n') {
      ++line_;
      col_ = 1;
    } else {
      ++col_;
    }
    ++pos_;
  }

  std::string_view src_;
  const std::string& file_;
  std::size_t pos_ = 0;
  int line_ = 1, col_ = 1;
  Token tok_;
};

class Parser {
 public:
  Parser(std::string_view src, const std::string& file) : lex_(src, file) {}

  Scenario run() {
    Scenario s;
    expect_ident("scenario");
    s.name = take_ident("scenario name");
    expect_punct("{");
    while (!at_punct("}")) {
      item(s);
    }
    expect_punct("}");
    if (lex_.peek().kind != Tok::kEnd) {
      lex_.fail("trailing input after scenario body", lex_.peek());
    }
    return s;
  }

 private:
  void item(Scenario& s) {
    const Token head = lex_.peek();
    if (head.kind != Tok::kIdent) {
      lex_.fail("expected a scenario item, got '" + std::string(head.text) +
                    "'",
                head);
    }
    if (head.text == "topology") {
      lex_.take();
      s.topo_w = take_number("topology width");
      expect_ident("x");
      s.topo_h = take_number("topology height");
    } else if (head.text == "entity" || head.text == "group") {
      EntityDecl e;
      e.is_group = head.text == "group";
      e.line = head.line;
      e.col = head.col;
      lex_.take();
      e.name = take_ident("entity name");
      expect_ident("profile");
      e.profile = take_ident("profile name");
      if (e.is_group) {
        expect_ident("count");
        e.count = expr();
      } else {
        e.count = Expr::num(1.0, head.line, head.col);
      }
      expect_ident("at");
      expect_punct("(");
      e.pos_x = expr();
      expect_punct(",");
      e.pos_y = expr();
      expect_punct(")");
      if (at_ident("channel")) {
        lex_.take();
        e.channel = expr();
      } else {
        e.channel = Expr::num(6.0, head.line, head.col);
      }
      s.entities.push_back(std::move(e));
    } else if (head.text == "registrar") {
      lex_.take();
      expect_ident("on");
      s.registrars.push_back(RegistrarDecl{ref()});
    } else if (head.text == "projector") {
      lex_.take();
      expect_ident("on");
      s.projectors.push_back(ProjectorDecl{ref()});
    } else if (head.text == "display") {
      lex_.take();
      DisplayDecl d;
      expect_ident("on");
      d.on = ref();
      expect_ident("size");
      d.width = expr();
      expect_ident("x");
      d.height = expr();
      expect_ident("deck");
      d.deck_seed = expr();
      s.displays.push_back(std::move(d));
    } else if (head.text == "goal") {
      lex_.take();
      GoalDecl g;
      g.line = head.line;
      g.col = head.col;
      const Token kind = lex_.take();
      if (kind.kind != Tok::kIdent ||
          (kind.text != "present" && kind.text != "discover")) {
        lex_.fail("expected goal kind 'present' or 'discover', got '" +
                      std::string(kind.text) + "'",
                  kind);
      }
      g.kind = kind.text == "present" ? GoalKind::kPresent : GoalKind::kDiscover;
      expect_ident("actor");
      g.actor = ref();
      expect_ident("persona");
      g.persona = take_ident("persona name");
      s.goals.push_back(std::move(g));
    } else if (head.text == "traffic") {
      lex_.take();
      TrafficDecl t;
      const Token kind = lex_.take();
      if (kind.kind == Tok::kIdent && kind.text == "ping") {
        t.kind = TrafficKind::kPing;
        expect_ident("from");
        t.from = ref();
        expect_ident("to");
        t.to = ref();
        expect_ident("period");
        t.period = expr();
        if (at_ident("payload")) {
          lex_.take();
          t.payload = expr();
        } else {
          t.payload = Expr::num(24.0, kind.line, kind.col);
        }
      } else if (kind.kind == Tok::kIdent && kind.text == "slides") {
        t.kind = TrafficKind::kSlides;
        expect_ident("on");
        t.from = ref();
        expect_ident("period");
        t.period = expr();
      } else {
        lex_.fail("expected traffic kind 'ping' or 'slides', got '" +
                      std::string(kind.text) + "'",
                  kind);
      }
      s.traffic.push_back(std::move(t));
    } else if (head.text == "phase") {
      lex_.take();
      const Token which = lex_.take();
      if (which.kind == Tok::kIdent && which.text == "settle") {
        s.phases.settle = expr();
      } else if (which.kind == Tok::kIdent && which.text == "meeting") {
        s.phases.meeting = expr();
      } else {
        lex_.fail("expected phase 'settle' or 'meeting', got '" +
                      std::string(which.text) + "'",
                  which);
      }
    } else if (head.text == "horizon") {
      lex_.take();
      s.phases.horizon = expr();
    } else if (head.text == "drain") {
      lex_.take();
      s.phases.drain = expr();
    } else {
      lex_.fail("unknown scenario item '" + std::string(head.text) + "'",
                head);
    }
    expect_punct(";");
  }

  EntityRef ref() {
    const Token t = lex_.peek();
    EntityRef r;
    r.name = take_ident("entity reference");
    r.line = t.line;
    r.col = t.col;
    return r;
  }

  // expr := term (('+' | '-') term)*
  std::unique_ptr<Expr> expr() {
    auto lhs = term();
    while (at_punct("+") || at_punct("-")) {
      const Token op = lex_.take();
      auto node = std::make_unique<Expr>();
      node->op = op.text == "+" ? ExprOp::kAdd : ExprOp::kSub;
      node->line = op.line;
      node->col = op.col;
      node->lhs = std::move(lhs);
      node->rhs = term();
      lhs = std::move(node);
    }
    return lhs;
  }

  // term := factor (('*' | '/' | '%') factor)*
  std::unique_ptr<Expr> term() {
    auto lhs = factor();
    while (at_punct("*") || at_punct("/") || at_punct("%")) {
      const Token op = lex_.take();
      auto node = std::make_unique<Expr>();
      node->op = op.text == "*"   ? ExprOp::kMul
                 : op.text == "/" ? ExprOp::kDiv
                                  : ExprOp::kMod;
      node->line = op.line;
      node->col = op.col;
      node->lhs = std::move(lhs);
      node->rhs = factor();
      lhs = std::move(node);
    }
    return lhs;
  }

  std::unique_ptr<Expr> factor() {
    const Token t = lex_.peek();
    if (t.kind == Tok::kNumber) {
      lex_.take();
      return Expr::num(t.number, t.line, t.col);
    }
    if (t.kind == Tok::kIdent && (t.text == "shard" || t.text == "i")) {
      lex_.take();
      auto e = std::make_unique<Expr>();
      e->op = t.text == "shard" ? ExprOp::kShard : ExprOp::kIndex;
      e->line = t.line;
      e->col = t.col;
      return e;
    }
    if (t.kind == Tok::kPunct && t.text == "(") {
      lex_.take();
      auto e = expr();
      expect_punct(")");
      return e;
    }
    if (t.kind == Tok::kPunct && t.text == "-") {
      lex_.take();
      auto e = std::make_unique<Expr>();
      e->op = ExprOp::kNeg;
      e->line = t.line;
      e->col = t.col;
      e->lhs = factor();
      return e;
    }
    lex_.fail("expected a number, 'shard', 'i', '(' or unary '-', got '" +
                  std::string(t.text) + "'",
              t);
  }

  bool at_punct(const char* p) const {
    return lex_.peek().kind == Tok::kPunct && lex_.peek().text == p;
  }
  bool at_ident(const char* id) const {
    return lex_.peek().kind == Tok::kIdent && lex_.peek().text == id;
  }
  void expect_punct(const char* p) {
    if (!at_punct(p)) {
      lex_.fail("expected '" + std::string(p) + "', got '" +
                    std::string(lex_.peek().text) + "'",
                lex_.peek());
    }
    lex_.take();
  }
  void expect_ident(const char* id) {
    if (!at_ident(id)) {
      lex_.fail("expected '" + std::string(id) + "', got '" +
                    std::string(lex_.peek().text) + "'",
                lex_.peek());
    }
    lex_.take();
  }
  std::string take_ident(const char* what) {
    if (lex_.peek().kind != Tok::kIdent) {
      lex_.fail("expected " + std::string(what) + ", got '" +
                    std::string(lex_.peek().text) + "'",
                lex_.peek());
    }
    return std::string(lex_.take().text);
  }
  double take_number(const char* what) {
    if (lex_.peek().kind != Tok::kNumber) {
      lex_.fail("expected " + std::string(what) + ", got '" +
                    std::string(lex_.peek().text) + "'",
                lex_.peek());
    }
    return lex_.take().number;
  }

  Lexer lex_;
};

}  // namespace

Scenario parse(std::string_view source, const std::string& filename) {
  return Parser(source, filename).run();
}

Scenario parse_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) throw ScnError("cannot open scenario file: " + path);
  std::ostringstream buf;
  buf << in.rdbuf();
  return parse(buf.str(), path);
}

}  // namespace aroma::scn
