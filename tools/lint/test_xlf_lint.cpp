// Unit suite for xlf_lint: rule hits, the allow-comment escape hatch,
// DAG parsing/violations, and the CLI exit-code contract (0 clean,
// 1 findings, 2 usage/I-O error) — the contract CI leans on. Also
// covers the token lexer, the cross-TU call graph and its
// scope-qualified resolution, the hot-alloc / ack-order structural
// rules, the stale-allow audit, and the xlf_sym_audit link-time audit.
#include "tools/lint/lint.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "tools/lint/callgraph.hpp"
#include "tools/lint/lexer.hpp"
#include "tools/lint/sym_audit.hpp"

namespace xlf::lint {
namespace {

namespace fs = std::filesystem;

std::string read_file(const fs::path& path) {
  std::ifstream file(path);
  EXPECT_TRUE(file.good()) << path;
  std::ostringstream text;
  text << file.rdbuf();
  return text.str();
}

const char* kMiniDag =
    "util:\n"
    "gf: util\n"
    "bch: gf util\n"
    "ftl: util\n";

LayerGraph mini_graph() { return LayerGraph::parse(kMiniDag); }

std::vector<std::string> rules_of(const std::vector<Finding>& findings) {
  std::vector<std::string> out;
  out.reserve(findings.size());
  for (const Finding& f : findings) out.push_back(f.rule);
  return out;
}

TEST(Rules, ListCoversEveryRuleFamily) {
  const std::vector<RuleInfo>& rules = rule_infos();
  ASSERT_EQ(rules.size(), 9u);
  for (const char* name :
       {"layering", "no-ambient-random", "no-wall-clock",
        "no-unordered-emit", "no-ptr-order", "raw-assert", "hot-alloc",
        "ack-order", "unused-allow"}) {
    EXPECT_TRUE(is_rule_name(name)) << name;
  }
  EXPECT_FALSE(is_rule_name("no-such-rule"));
}

TEST(LayerGraph, ClosureIsTransitiveAndIncludesSelf) {
  const LayerGraph graph = mini_graph();
  const std::set<std::string>& bch = graph.allowed("bch");
  EXPECT_EQ(bch, (std::set<std::string>{"bch", "gf", "util"}));
  EXPECT_EQ(graph.allowed("util"), std::set<std::string>{"util"});
  EXPECT_FALSE(graph.has_layer("explore"));
}

TEST(LayerGraph, RejectsCycleUndeclaredDepAndDuplicate) {
  EXPECT_THROW(LayerGraph::parse("a: b\nb: a\n"), std::runtime_error);
  EXPECT_THROW(LayerGraph::parse("a: ghost\n"), std::runtime_error);
  EXPECT_THROW(LayerGraph::parse("a:\na: \n"), std::runtime_error);
  EXPECT_THROW(LayerGraph::parse("just-a-layer-no-colon\n"),
               std::runtime_error);
}

TEST(Layering, UpwardIncludeIsAViolationDownwardIsNot) {
  const LayerGraph graph = mini_graph();
  const auto up = lint_file("src/util/widget.hpp",
                            "#include \"src/ftl/ftl.hpp\"\n", graph);
  ASSERT_EQ(up.size(), 1u);
  EXPECT_EQ(up[0].rule, "layering");
  EXPECT_EQ(up[0].line, 1);
  EXPECT_NE(up[0].message.find("layers.txt"), std::string::npos);

  const auto down = lint_file(
      "src/bch/decoder.cpp",
      "#include \"src/gf/gf2m.hpp\"\n#include \"src/util/rng.hpp\"\n"
      "#include \"src/bch/decoder.hpp\"\n",
      graph);
  EXPECT_TRUE(down.empty());
}

TEST(Layering, CrossIncludeBetweenSiblingsIsAViolation) {
  const LayerGraph graph = mini_graph();
  // gf and ftl are siblings off util; neither may see the other.
  const auto cross =
      lint_file("src/ftl/x.cpp", "#include \"src/gf/gf2m.hpp\"\n", graph);
  ASSERT_EQ(cross.size(), 1u);
  EXPECT_EQ(cross[0].rule, "layering");
}

TEST(Layering, FilesOutsideSrcLayersAreExempt) {
  const LayerGraph graph = mini_graph();
  const auto findings = lint_file(
      "tools/xlf_explore.cpp", "#include \"src/ftl/ftl.hpp\"\n", graph);
  EXPECT_TRUE(findings.empty());
}

TEST(Determinism, BanListHitsEachPattern) {
  const LayerGraph graph = mini_graph();
  const auto findings = lint_file("src/util/bad.cpp",
                                  "std::random_device rd;\n"
                                  "int r = rand();\n"
                                  "auto t0 = std::chrono::steady_clock::now();\n"
                                  "time_t t = time(nullptr);\n",
                                  graph);
  EXPECT_EQ(rules_of(findings),
            (std::vector<std::string>{"no-ambient-random", "no-ambient-random",
                                      "no-wall-clock", "no-wall-clock"}));
}

TEST(Determinism, CommentsAndStringsAreNotFindings) {
  const LayerGraph graph = mini_graph();
  const auto findings =
      lint_file("src/util/ok.cpp",
                "// program time(), rand() and steady_clock in a comment\n"
                "/* time( in a block comment */\n"
                "const char* msg = \"wall time() of rand()\";\n"
                "double sim_time(int events);  // not the C time()\n",
                graph);
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(Determinism, UnorderedContainersOnlyFlaggedInEmitterTus) {
  const LayerGraph graph = mini_graph();
  const std::string code = "std::unordered_map<int, int> index;\n";
  EXPECT_TRUE(lint_file("src/ftl/mapping.cpp", code, graph).empty());
  EXPECT_TRUE(is_emitter_tu("src/explore/report.cpp"));
  EXPECT_TRUE(is_emitter_tu("src/explore/ftl_csv.cpp"));
  EXPECT_FALSE(is_emitter_tu("src/util/json.cpp"));
  const auto report = lint_file("src/explore/report.cpp", code, graph);
  ASSERT_EQ(report.size(), 1u);
  EXPECT_EQ(report[0].rule, "no-unordered-emit");
}

TEST(Determinism, PointerOrderingIsFlagged) {
  const LayerGraph graph = mini_graph();
  const auto findings = lint_file(
      "src/ftl/bad.cpp",
      "std::set<Block*, std::less<Block*>> by_addr;\n"
      "auto key = reinterpret_cast<std::uintptr_t>(block);\n",
      graph);
  EXPECT_EQ(rules_of(findings), (std::vector<std::string>{"no-ptr-order",
                                                          "no-ptr-order"}));
}

TEST(AssertHygiene, RawAssertFlaggedStaticAndGtestAssertsNot) {
  const LayerGraph graph = mini_graph();
  const auto raw =
      lint_file("src/nand/cell.cpp", "  assert(level < 4);\n", graph);
  ASSERT_EQ(raw.size(), 1u);
  EXPECT_EQ(raw[0].rule, "raw-assert");
  EXPECT_NE(raw[0].message.find("XLF_EXPECT"), std::string::npos);

  const auto clean = lint_file("src/nand/cell.cpp",
                               "static_assert(sizeof(int) == 4);\n"
                               "ASSERT_EQ(a, b);\n"
                               "XLF_EXPECT(level < 4);\n",
                               graph);
  EXPECT_TRUE(clean.empty());
}

TEST(AllowComment, SameLineAndPrecedingLineSuppressWrongRuleDoesNot) {
  const LayerGraph graph = mini_graph();
  EXPECT_TRUE(lint_file("src/nand/c.cpp",
                        "assert(x);  // xlf-lint: allow(raw-assert)\n", graph)
                  .empty());
  EXPECT_TRUE(lint_file("src/nand/c.cpp",
                        "// xlf-lint: allow(raw-assert)\nassert(x);\n", graph)
                  .empty());
  // An allow for a different rule suppresses nothing.
  EXPECT_EQ(lint_file("src/nand/c.cpp",
                      "assert(x);  // xlf-lint: allow(no-wall-clock)\n", graph)
                .size(),
            1u);
  // A preceding-line allow only arms the next line, not the whole file.
  EXPECT_EQ(lint_file("src/nand/c.cpp",
                      "// xlf-lint: allow(raw-assert)\nint y;\nassert(x);\n",
                      graph)
                .size(),
            1u);
}

// ---------------------------------------------------------------- lexer

TEST(Lexer, TokenKindsAndPositions) {
  const LexedFile lx = lex("int x = 42;\nfoo->bar(x);\n");
  ASSERT_GE(lx.tokens.size(), 10u);
  EXPECT_EQ(lx.tokens[0].kind, TokKind::kIdentifier);
  EXPECT_EQ(lx.tokens[0].text, "int");
  EXPECT_EQ(lx.tokens[0].line, 1);
  EXPECT_EQ(lx.tokens[0].col, 0);
  EXPECT_EQ(lx.tokens[2].kind, TokKind::kPunct);  // '='
  EXPECT_EQ(lx.tokens[3].kind, TokKind::kNumber);
  EXPECT_EQ(lx.tokens[3].text, "42");
  // "->" is one punctuator, at line 2.
  const auto arrow = std::find_if(
      lx.tokens.begin(), lx.tokens.end(),
      [](const Token& t) { return t.text == "->"; });
  ASSERT_NE(arrow, lx.tokens.end());
  EXPECT_EQ(arrow->line, 2);
}

TEST(Lexer, StrippedViewKeepsShapeAndBlanksLiterals) {
  const LexedFile lx = lex("int a = 1;  // rand()\nconst char* s = \"time(\";\n");
  ASSERT_EQ(lx.raw.size(), 2u);
  ASSERT_EQ(lx.code.size(), 2u);
  EXPECT_EQ(lx.code[0].size(), lx.raw[0].size());
  EXPECT_EQ(lx.code[1].size(), lx.raw[1].size());
  EXPECT_EQ(lx.code[0].find("rand"), std::string::npos);
  EXPECT_EQ(lx.code[1].find("time"), std::string::npos);
  EXPECT_NE(lx.code[0].find("int a"), std::string::npos);
}

TEST(Lexer, RawStringSpansLinesWithCustomDelimiter) {
  const LexedFile lx = lex(
      "auto s = R\"delim(\n"
      "rand(); an embedded )\" quote\n"
      ")delim\";\n"
      "int after = rand();\n");
  // Nothing from inside the raw literal reaches the code view...
  for (const std::string& line : {lx.code[0], lx.code[1], lx.code[2]}) {
    EXPECT_EQ(line.find("rand"), std::string::npos) << line;
  }
  // ...but code after its terminator does.
  EXPECT_NE(lx.code[3].find("rand"), std::string::npos);
}

TEST(Lexer, BackslashContinuationExtendsCommentsAndStrings) {
  const LexedFile lx = lex(
      "// a comment that continues \\\n"
      "rand(); srand(7);\n"
      "const char* s = \"spliced \\\n"
      "still a string rand()\";\n"
      "int live = rand();\n");
  EXPECT_EQ(lx.code[1].find("rand"), std::string::npos) << lx.code[1];
  EXPECT_EQ(lx.code[3].find("rand"), std::string::npos) << lx.code[3];
  EXPECT_NE(lx.code[4].find("rand"), std::string::npos);
}

TEST(Lexer, PreprocessorTokensAreFlagged) {
  const LexedFile lx = lex("#include <mutex>\nint x;\n");
  ASSERT_FALSE(lx.tokens.empty());
  EXPECT_TRUE(lx.tokens.front().preprocessor);
  const auto mutex_tok = std::find_if(
      lx.tokens.begin(), lx.tokens.end(),
      [](const Token& t) { return t.text == "mutex"; });
  ASSERT_NE(mutex_tok, lx.tokens.end());
  EXPECT_TRUE(mutex_tok->preprocessor);
  EXPECT_FALSE(lx.tokens.back().preprocessor);  // the ';' after `int x`
}

// -------------------------------------------- fixtures: adversarial

#ifdef XLF_LINT_FIXTURE_DIR

// The adversarial fixtures hold banned tokens inside raw strings
// spanning lines and behind backslash continuations; only the one
// genuine construct after them may be reported.
TEST(Adversarial, RawStringsSpanningLinesHideBannedTokens) {
  const fs::path file =
      fs::path(XLF_LINT_FIXTURE_DIR) / "adversarial" / "raw_strings.cpp";
  const auto findings =
      lint_file("src/util/raw_strings.cpp", read_file(file), mini_graph());
  ASSERT_EQ(findings.size(), 1u) << format_finding(findings.front());
  EXPECT_EQ(findings[0].rule, "no-ambient-random");
  EXPECT_EQ(findings[0].line, 27);
}

TEST(Adversarial, BackslashContinuationsHideBannedTokens) {
  const fs::path file =
      fs::path(XLF_LINT_FIXTURE_DIR) / "adversarial" / "continuation.cpp";
  const auto findings =
      lint_file("src/util/continuation.cpp", read_file(file), mini_graph());
  ASSERT_EQ(findings.size(), 1u) << format_finding(findings.front());
  EXPECT_EQ(findings[0].rule, "no-ambient-random");
  EXPECT_EQ(findings[0].line, 23);
}

#endif  // XLF_LINT_FIXTURE_DIR

// ------------------------------------------------------------ hot-alloc

TEST(HotAlloc, DirectAllocationInHotFunctionIsFlagged) {
  const auto findings = lint_file("src/ftl/hot.cpp",
                                  "// xlf: hot\n"
                                  "void tick() { buf.push_back(1); }\n",
                                  mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-alloc");
  EXPECT_EQ(findings[0].line, 2);
  EXPECT_NE(findings[0].message.find("'tick'"), std::string::npos);
}

TEST(HotAlloc, TransitiveCalleeIsFlaggedAndNamesTheRoot) {
  const auto findings = lint_file("src/ftl/hot.cpp",
                                  "void helper() { int* p = new int; }\n"
                                  "void middle() { helper(); }\n"
                                  "// xlf: hot\n"
                                  "void tick() { middle(); }\n",
                                  mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("'helper'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("hot via 'tick'"), std::string::npos);
}

TEST(HotAlloc, UnannotatedFunctionsAreNotScanned) {
  const auto findings = lint_file(
      "src/ftl/cold.cpp",
      "void setup() { buf.reserve(100); auto p = std::make_unique<int>(); }\n",
      mini_graph());
  EXPECT_TRUE(findings.empty());
}

TEST(HotAlloc, EveryBannedConstructIsCaught) {
  const std::string preamble = "// xlf: hot\nvoid tick() {\n";
  const std::vector<std::pair<std::string, std::string>> cases = {
      {"int* a = new int;", "new"},
      {"void* b = malloc(8);", "malloc()"},
      {"auto c = std::make_unique<int>();", "std::make_unique"},
      {"auto d = std::make_shared<int>();", "std::make_shared"},
      {"v.push_back(1);", "push_back()"},
      {"v.emplace_back();", "emplace_back()"},
      {"v.resize(9);", "resize()"},
      {"v.reserve(9);", "reserve()"},
      {"std::function<void()> f = g;", "std::function"},
      {"std::string s = name;", "std::string"},
      {"auto t = std::to_string(7);", "std::to_string"},
  };
  for (const auto& [code, construct] : cases) {
    const auto findings = lint_file(
        "src/ftl/hot.cpp", preamble + code + "\n}\n", mini_graph());
    ASSERT_EQ(findings.size(), 1u) << code;
    EXPECT_EQ(findings[0].rule, "hot-alloc") << code;
    EXPECT_NE(findings[0].message.find("'" + construct + "'"),
              std::string::npos)
        << code << " → " << findings[0].message;
  }
}

TEST(HotAlloc, AllowEscapeSuppressesOneArenaGrowthSite) {
  const auto findings =
      lint_file("src/ftl/hot.cpp",
                "// xlf: hot\n"
                "void tick() {\n"
                "  pool.emplace_back();  // xlf-lint: allow(hot-alloc)\n"
                "  pool.push_back(1);\n"
                "}\n",
                mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].line, 4);  // only the unescaped site survives
}

TEST(HotAlloc, LambdaBodyBelongsToTheEnclosingFunction) {
  // An event closure built inside a hot function: the allocation in
  // the lambda body is charged to the function that creates it.
  const auto findings =
      lint_file("src/ftl/hot.cpp",
                "// xlf: hot\n"
                "void tick() {\n"
                "  schedule([this] { log.push_back(1); });\n"
                "}\n",
                mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-alloc");
  EXPECT_EQ(findings[0].line, 3);
}

TEST(HotAlloc, CrossTuCalleeIsFlaggedThroughTheCallGraph) {
  // The hot root and the allocating leaf live in different TUs; the
  // PR 9 per-file propagation could not see this edge.
  const std::vector<FileInput> inputs = {
      {"src/ftl/root.cpp",
       "// xlf: hot\n"
       "void tick() { helper(); }\n"},
      {"src/util/leaf.cpp",
       "void helper() { int* p = new int; }\n"},
  };
  const auto findings = lint_files(inputs, mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "hot-alloc");
  EXPECT_EQ(findings[0].file, "src/util/leaf.cpp");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("'helper'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("hot via 'tick'"), std::string::npos);

  // Findings from several files and analyses come back in one global
  // (file, line, rule position) order, whatever the input order.
  const std::vector<FileInput> mixed = {
      {"src/util/leaf.cpp",
       "void helper() { int* p = new int; }\n"
       "int r = rand();\n"},
      {"src/ftl/root.cpp",
       "// xlf: hot\n"
       "void tick() { helper(); assert(r); }\n"
       "auto t = time(nullptr);\n"},
  };
  std::vector<std::string> order;
  for (const Finding& f : lint_files(mixed, mini_graph())) {
    order.push_back(f.file + ":" + std::to_string(f.line) + ":" + f.rule);
  }
  EXPECT_EQ(order, (std::vector<std::string>{
                       "src/ftl/root.cpp:2:raw-assert",
                       "src/ftl/root.cpp:3:no-wall-clock",
                       "src/util/leaf.cpp:1:hot-alloc",
                       "src/util/leaf.cpp:2:no-ambient-random"}));
}

TEST(HotAlloc, ColdMarkerStopsPropagationThroughTheMarkedDef) {
  // `// xlf: cold` is a reviewed contract barrier: the def and its
  // whole closure leave the hot reach set.
  // Blank lines keep each def's marker window (three lines above the
  // name) from bleeding into its neighbours.
  const std::string via_cold =
      "void leaf() { buf.push_back(1); }\n"
      "\n\n\n"
      "// xlf: cold\n"
      "void report() { leaf(); }\n"
      "\n\n\n"
      "// xlf: hot\n"
      "void tick() { report(); }\n";
  EXPECT_TRUE(lint_file("src/ftl/cold.cpp", via_cold, mini_graph()).empty());

  // A second, unmarked path to the same leaf keeps it hot: cold cuts
  // the marked node, not everything it happens to call.
  const std::string two_paths = via_cold + "\n\n\n"
                                           "void step() { leaf(); }\n"
                                           "\n\n\n"
                                           "// xlf: hot\n"
                                           "void tock() { step(); }\n";
  const auto findings = lint_file("src/ftl/cold.cpp", two_paths, mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("hot via 'tock'"), std::string::npos);
}

TEST(HotAlloc, ColdMarkedHotRootIsNotARoot) {
  // cold wins when both markers are present (a hot-marked def being
  // demoted during triage should not need the hot mark removed first).
  const auto findings = lint_file("src/ftl/both.cpp",
                                  "// xlf: hot\n"
                                  "// xlf: cold\n"
                                  "void tick() { buf.push_back(1); }\n",
                                  mini_graph());
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(HotAlloc, MemberDefinitionMessagesUseQualifiedNames) {
  const auto findings = lint_file("src/ftl/member.cpp",
                                  "namespace xlf::ftl {\n"
                                  "// xlf: hot\n"
                                  "void Ftl::tick() { buf.push_back(1); }\n"
                                  "}\n",
                                  mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_NE(findings[0].message.find("'xlf::ftl::Ftl::tick'"),
            std::string::npos)
      << findings[0].message;
}

TEST(HotAlloc, BannedTokenInCommentOrStringIsNotAFinding) {
  const auto findings = lint_file(
      "src/ftl/hot.cpp",
      "// xlf: hot\n"
      "void tick() {\n"
      "  // calling new or push_back here would allocate\n"
      "  const char* why = \"no new std::string allowed\";\n"
      "  (void)why;\n"
      "}\n",
      mini_graph());
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

// ------------------------------------------------------------ callgraph

// Structural tokens of one TU: comments and preprocessor tokens
// stripped, exactly as lint_files feeds CallGraph::build.
std::vector<Token> structural(const std::string& text) {
  std::vector<Token> out;
  for (const Token& tok : lex(text).tokens) {
    if (tok.kind != TokKind::kComment && !tok.preprocessor) {
      out.push_back(tok);
    }
  }
  return out;
}

std::size_t def_index(const CallGraph& graph, const std::string& qual) {
  for (std::size_t d = 0; d < graph.defs().size(); ++d) {
    if (graph.defs()[d].qual == qual) return d;
  }
  ADD_FAILURE() << "no def with qual " << qual;
  return CallGraph::npos;
}

TEST(CallGraphTest, NestedNamespacesQualifyDefinitions) {
  const std::vector<Token> code = structural(
      "namespace a { namespace b {\n"
      "void f() {}\n"
      "} }\n"
      "namespace a::b::c {\n"
      "void g() { f(); }\n"
      "}\n");
  const std::vector<const std::vector<Token>*> codes = {&code};
  const CallGraph graph = CallGraph::build(codes);
  ASSERT_EQ(graph.defs().size(), 2u);
  EXPECT_EQ(graph.defs()[0].qual, "a::b::f");
  EXPECT_EQ(graph.defs()[1].qual, "a::b::c::g");
  // g's unqualified call binds to the bare name `f` wherever it is.
  const std::size_t g = def_index(graph, "a::b::c::g");
  ASSERT_EQ(graph.callees(g).size(), 1u);
  EXPECT_EQ(graph.defs()[graph.callees(g)[0]].qual, "a::b::f");
}

TEST(CallGraphTest, OutOfLineMemberDefinitionCarriesTheWrittenChain) {
  const std::vector<Token> code = structural(
      "namespace xlf::ftl {\n"
      "void Ftl::flush(std::uint32_t q) { commit(); }\n"
      "}\n"
      "void commit() {}\n");
  const std::vector<const std::vector<Token>*> codes = {&code};
  const CallGraph graph = CallGraph::build(codes);
  const std::size_t flush = def_index(graph, "xlf::ftl::Ftl::flush");
  EXPECT_EQ(graph.defs()[flush].name, "flush");
  ASSERT_EQ(graph.callees(flush).size(), 1u);
  EXPECT_EQ(graph.defs()[graph.callees(flush)[0]].qual, "commit");
}

TEST(CallGraphTest, QualifiedCallMatchesComponentSuffixOnly) {
  const std::vector<Token> code = structural(
      "namespace a { void f() {} }\n"
      "namespace b { void f() {} }\n"
      "void caller() { a::f(); }\n");
  const std::vector<const std::vector<Token>*> codes = {&code};
  const CallGraph graph = CallGraph::build(codes);
  const std::size_t caller = def_index(graph, "caller");
  ASSERT_EQ(graph.callees(caller).size(), 1u);
  EXPECT_EQ(graph.defs()[graph.callees(caller)[0]].qual, "a::f");
}

TEST(CallGraphTest, UnqualifiedCallOverApproximatesAcrossOverloadSets) {
  // Documented over-approximation: name-level resolution binds an
  // unqualified (or member) call to EVERY same-named def — both
  // overloads, and a same-named method of an unrelated class.
  const std::vector<Token> a = structural(
      "void handle(int x) {}\n"
      "void handle(double x) {}\n");
  const std::vector<Token> b = structural(
      "struct Other { void handle(); };\n"
      "void Other::handle() {}\n"
      "void caller(Other& o) { o.handle(); }\n");
  const std::vector<const std::vector<Token>*> codes = {&a, &b};
  const CallGraph graph = CallGraph::build(codes);
  const std::size_t caller = def_index(graph, "caller");
  EXPECT_EQ(graph.callees(caller).size(), 3u);
}

TEST(CallGraphTest, AnonymousNamespaceDefsAreTuLocal) {
  const std::vector<Token> a = structural(
      "namespace { void local_helper() { int* p = new int; } }\n"
      "void entry_a() { local_helper(); }\n");
  const std::vector<Token> b = structural(
      "void entry_b() { local_helper(); }\n");
  const std::vector<const std::vector<Token>*> codes = {&a, &b};
  const CallGraph graph = CallGraph::build(codes);
  const std::size_t helper = def_index(graph, "local_helper");
  EXPECT_TRUE(graph.defs()[helper].tu_local);
  // Same-TU call binds; the other TU's call cannot see it.
  EXPECT_EQ(graph.callees(def_index(graph, "entry_a")).size(), 1u);
  EXPECT_TRUE(graph.callees(def_index(graph, "entry_b")).empty());
}

TEST(CallGraphTest, ReachStopsAtStopNodesAndRecordsParents) {
  const std::vector<Token> code = structural(
      "void leaf() {}\n"
      "void barrier() { leaf(); }\n"
      "void mid() { barrier(); }\n"
      "void root() { mid(); leaf(); }\n");
  const std::vector<const std::vector<Token>*> codes = {&code};
  const CallGraph graph = CallGraph::build(codes);
  const std::size_t leaf = def_index(graph, "leaf");
  const std::size_t barrier = def_index(graph, "barrier");
  const std::size_t root = def_index(graph, "root");

  std::vector<char> stop(graph.defs().size(), 0);
  stop[barrier] = 1;
  const CallGraph::Reach reach = graph.reach({root}, &stop);
  EXPECT_EQ(reach.parent[root], root);  // a root is its own parent
  EXPECT_EQ(reach.root[root], root);
  EXPECT_EQ(reach.parent[barrier], CallGraph::npos);  // never visited
  // leaf is still reached — via root's direct call, not the barrier.
  EXPECT_EQ(reach.parent[leaf], root);
  EXPECT_EQ(reach.root[leaf], root);

  // Without the stop set the same BFS walks straight through.
  const CallGraph::Reach open = graph.reach({root});
  EXPECT_NE(open.parent[barrier], CallGraph::npos);
}

// ------------------------------------------------------------- ack-order

TEST(AckOrder, MutationReachableFromAckWithoutDurableIsFlagged) {
  const std::vector<FileInput> inputs = {
      {"src/ftl/complete.cpp",
       "// xlf: ack\n"
       "void complete_slot() { apply(); }\n"},
      {"src/util/apply.cpp",
       "void apply(Dev& dev) { dev.program_page(1); }\n"},
  };
  const auto findings = lint_files(inputs, mini_graph());
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "ack-order");
  EXPECT_EQ(findings[0].file, "src/util/apply.cpp");
  EXPECT_EQ(findings[0].line, 1);
  // The message names the ack root and the call chain to the site.
  EXPECT_NE(findings[0].message.find("'program_page()'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("'complete_slot'"), std::string::npos);
  EXPECT_NE(findings[0].message.find("complete_slot -> apply"),
            std::string::npos)
      << findings[0].message;
}

TEST(AckOrder, MutationBehindADurableCommitIsClean) {
  const std::vector<FileInput> inputs = {
      {"src/ftl/complete.cpp",
       "// xlf: ack\n"
       "void complete_slot() { commit(); }\n"},
      {"src/ftl/commit.cpp",
       "// xlf: durable\n"
       "void commit(Dev& dev) { dev.program_page(1); }\n"},
  };
  const auto findings = lint_files(inputs, mini_graph());
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(AckOrder, EachMutationTokenIsCaught) {
  for (const char* mutation :
       {"program_page", "erase_block", "write_page_meta"}) {
    const std::string body = std::string("// xlf: ack\n") +
                             "void complete_slot(Dev& dev) { dev." +
                             mutation + "(0); }\n";
    const auto findings =
        lint_file("src/ftl/complete.cpp", body, mini_graph());
    ASSERT_EQ(findings.size(), 1u) << mutation;
    EXPECT_EQ(findings[0].rule, "ack-order") << mutation;
  }
}

TEST(AckOrder, AllowEscapeSuppressesTheMutationSite) {
  const auto findings = lint_file(
      "src/ftl/complete.cpp",
      "// xlf: ack\n"
      "void complete_slot(Dev& dev) {\n"
      "  dev.program_page(0);  // xlf-lint: allow(ack-order)\n"
      "}\n",
      mini_graph());
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

TEST(AckOrder, UnreachableMutationIsNotAFinding) {
  // A mutation in a function no ack site reaches is the normal write
  // path — not this rule's business.
  const auto findings = lint_file(
      "src/ftl/write.cpp",
      "void write_path(Dev& dev) { dev.program_page(0); }\n"
      "// xlf: ack\n"
      "void complete_slot() { post_stats(); }\n"
      "void post_stats() {}\n",
      mini_graph());
  EXPECT_TRUE(findings.empty()) << format_finding(findings.front());
}

// ---------------------------------------------------------- unused-allow

TEST(UnusedAllow, StaleAllowIsReportedOnlyUnderTheOption) {
  const std::vector<FileInput> inputs = {
      {"src/util/stale.hpp",
       "// xlf-lint: allow(hot-alloc)\n"
       "int fine();\n"},
  };
  // Default run: the stale comment is invisible (a partial-tree run
  // cannot see the cross-TU finding an allow may suppress).
  EXPECT_TRUE(lint_files(inputs, mini_graph()).empty());

  LintOptions options;
  options.report_unused_allows = true;
  const auto findings = lint_files(inputs, mini_graph(), options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unused-allow");
  EXPECT_EQ(findings[0].line, 1);
  EXPECT_NE(findings[0].message.find("allow(hot-alloc)"), std::string::npos);
}

TEST(UnusedAllow, AllowThatSuppressesAFindingIsNotReported) {
  const std::vector<FileInput> inputs = {
      {"src/ftl/hot.cpp",
       "// xlf: hot\n"
       "void tick() {\n"
       "  pool.push_back(1);  // xlf-lint: allow(hot-alloc)\n"
       "}\n"},
  };
  LintOptions options;
  options.report_unused_allows = true;
  EXPECT_TRUE(lint_files(inputs, mini_graph(), options).empty());
}

TEST(UnusedAllow, UnknownRuleNameIsReported) {
  const std::vector<FileInput> inputs = {
      {"src/util/typo.hpp",
       "int x = rand();  // xlf-lint: allow(no-ambient-randm)\n"},
  };
  LintOptions options;
  options.report_unused_allows = true;
  const auto findings = lint_files(inputs, mini_graph(), options);
  // The typo'd allow suppresses nothing, so the original finding
  // stands AND the stale suppression is called out as a typo.
  ASSERT_EQ(findings.size(), 2u);
  EXPECT_EQ(findings[0].rule, "no-ambient-random");
  EXPECT_EQ(findings[1].rule, "unused-allow");
  EXPECT_NE(findings[1].message.find("unknown rule 'no-ambient-randm'"),
            std::string::npos)
      << findings[1].message;
}

TEST(UnusedAllow, CommaListReportsOnlyTheStaleEntries) {
  const std::vector<FileInput> inputs = {
      {"src/ftl/hot.cpp",
       "// xlf: hot\n"
       "void tick() {\n"
       "  pool.push_back(1);  // xlf-lint: allow(hot-alloc, raw-assert)\n"
       "}\n"},
  };
  LintOptions options;
  options.report_unused_allows = true;
  const auto findings = lint_files(inputs, mini_graph(), options);
  ASSERT_EQ(findings.size(), 1u);
  EXPECT_EQ(findings[0].rule, "unused-allow");
  EXPECT_NE(findings[0].message.find("allow(raw-assert)"), std::string::npos);
}

// ------------------------------------------------------------ sym-audit

TEST(SymAudit, ParsesPosixNmOutput) {
  ArchiveSyms syms;
  parse_nm(
      "libxlf_ftl.a[member.o]:\n"
      "_ZN3xlf3ftl3runEv T 0000000000000000 0000000000000042\n"
      "_ZN3xlf4util3logEv U\n"
      "local_helper t 0000000000000010 0000000000000008\n"
      "\n"
      "weak_defined W 0000000000000030 0000000000000008\n",
      syms);
  EXPECT_EQ(syms.defined, (std::set<std::string>{"_ZN3xlf3ftl3runEv",
                                                 "weak_defined"}));
  EXPECT_EQ(syms.undefined, std::set<std::string>{"_ZN3xlf4util3logEv"});
  // Lowercase locals cannot satisfy a cross-archive reference.
  EXPECT_EQ(syms.defined.count("local_helper"), 0u);
}

TEST(SymAudit, UpwardReferenceIsAViolationDownwardIsNot) {
  const LayerGraph graph = LayerGraph::parse("util:\nftl: util\n");
  ArchiveSyms util{"util", "libxlf_util.a", {"util_sym"}, {"ftl_sym"}};
  ArchiveSyms ftl{"ftl", "libxlf_ftl.a", {"ftl_sym"}, {"util_sym"}};
  const auto violations = audit({util, ftl}, graph);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].layer, "util");
  EXPECT_EQ(violations[0].symbol, "ftl_sym");
  EXPECT_EQ(violations[0].owners, std::set<std::string>{"ftl"});
  const std::string text = format_violation(violations[0]);
  EXPECT_NE(text.find("'util'"), std::string::npos);
  EXPECT_NE(text.find("ftl_sym"), std::string::npos);
  EXPECT_NE(text.find("layers.txt"), std::string::npos);
}

TEST(SymAudit, ExternalAndSelfSatisfiedSymbolsAreIgnored) {
  const LayerGraph graph = LayerGraph::parse("util:\nftl: util\n");
  // "memcpy" is defined by no xlf archive; "intra" is U in one member
  // of the archive and T in another, so the archive satisfies itself.
  ArchiveSyms util{"util",
                   "libxlf_util.a",
                   {"intra"},
                   {"memcpy", "intra"}};
  ArchiveSyms ftl{"ftl", "libxlf_ftl.a", {}, {}};
  EXPECT_TRUE(audit({util, ftl}, graph).empty());
}

TEST(SymAudit, MultiOwnerSymbolIsFineIfAnyOwnerIsReachable) {
  const LayerGraph graph = LayerGraph::parse("util:\nftl: util\nsim: ftl util\n");
  // Both ftl and sim define dup_sym; ftl may use it (sim also defines
  // it, but ftl's closure covers ftl itself via... the other owner
  // being itself is erased; util may NOT use it (neither ftl nor sim
  // is in util's closure).
  ArchiveSyms util{"util", "libxlf_util.a", {}, {"dup_sym"}};
  ArchiveSyms ftl{"ftl", "libxlf_ftl.a", {"dup_sym"}, {}};
  ArchiveSyms sim{"sim", "libxlf_sim.a", {"dup_sym"}, {"dup_sym"}};
  const auto violations = audit({util, ftl, sim}, graph);
  ASSERT_EQ(violations.size(), 1u);
  EXPECT_EQ(violations[0].layer, "util");
}

TEST(SymAudit, LayerOfArchiveParsesOnlyXlfArchives) {
  EXPECT_EQ(layer_of_archive("/build/libxlf_ftl.a"), "ftl");
  EXPECT_EQ(layer_of_archive("libxlf_ecc_hw.a"), "ecc_hw");
  EXPECT_EQ(layer_of_archive("libother.a"), "");
  EXPECT_EQ(layer_of_archive("libxlf_ftl.so"), "");
  EXPECT_EQ(layer_of_archive("xlf_ftl.a"), "");
}

TEST(SymAudit, DemanglesItaniumSymbols) {
  const std::string demangled = demangle("_ZN3xlf3ftl3runEv");
  // Platforms without <cxxabi.h> fall back to the mangled name; on
  // gcc/clang the readable form must come back.
#if defined(__GNUG__)
  EXPECT_EQ(demangled, "xlf::ftl::run()");
#else
  EXPECT_EQ(demangled, "");
#endif
  EXPECT_EQ(demangle("not_a_mangled_name$$"), "");
}

TEST(SymAudit, CliUsageErrorsExitTwo) {
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_sym_audit_cli({}, out, err), 2);  // no paths
  EXPECT_EQ(run_sym_audit_cli({"--nm"}, out, err), 2);  // missing value
  EXPECT_EQ(run_sym_audit_cli({"--no-such-flag"}, out, err), 2);
  EXPECT_EQ(run_sym_audit_cli({"--layers", "/nonexistent/layers.txt", "."},
                              out, err),
            2);
}

TEST(SymAudit, CliRejectsDirectoriesWithNoArchives) {
  const fs::path empty = fs::path(::testing::TempDir()) / "sym_audit_empty";
  fs::create_directories(empty);
  std::ofstream(empty / "layers.txt") << "util:\n";
  std::ostringstream out;
  std::ostringstream err;
  EXPECT_EQ(run_sym_audit_cli({"--layers", (empty / "layers.txt").string(),
                               empty.string()},
                              out, err),
            2);
  EXPECT_NE(err.str().find("no libxlf_"), std::string::npos);
  fs::remove_all(empty);
}

// ------------------------------------------------------------------ CLI

class CliTest : public ::testing::Test {
 protected:
  void SetUp() override {
    root_ = fs::path(::testing::TempDir()) / "xlf_lint_cli";
    fs::remove_all(root_);
    fs::create_directories(root_ / "src" / "util");
    fs::create_directories(root_ / "src" / "ftl");
    write("layers.txt", "util:\nftl: util\n");
    write("src/util/ok.hpp", "#pragma once\nint fine();\n");
    write("src/ftl/ok.cpp", "#include \"src/util/ok.hpp\"\n");
  }
  void TearDown() override { fs::remove_all(root_); }

  void write(const std::string& rel, const std::string& text) {
    std::ofstream out(root_ / rel);
    out << text;
  }
  int run(const std::vector<std::string>& extra_args) {
    std::vector<std::string> args = {"--layers",
                                     (root_ / "layers.txt").string()};
    args.insert(args.end(), extra_args.begin(), extra_args.end());
    out_.str("");
    err_.str("");
    return run_cli(args, out_, err_);
  }

  fs::path root_;
  std::ostringstream out_;
  std::ostringstream err_;
};

TEST_F(CliTest, CleanTreeExitsZeroWithNoOutput) {
  EXPECT_EQ(run({(root_ / "src").string()}), 0);
  EXPECT_EQ(out_.str(), "");
}

TEST_F(CliTest, SeededLayeringViolationExitsOneAndNamesTheSite) {
  write("src/util/scratch.hpp", "#include \"src/ftl/ok.hpp\"\n");
  EXPECT_EQ(run({(root_ / "src").string()}), 1);
  EXPECT_NE(out_.str().find("scratch.hpp:1: [layering]"), std::string::npos)
      << out_.str();
  EXPECT_NE(err_.str().find("1 finding"), std::string::npos);
}

TEST_F(CliTest, AllowCommentTurnsTheSameSeedClean) {
  write("src/util/scratch.hpp",
        "// xlf-lint: allow(layering)\n#include \"src/ftl/ok.hpp\"\n");
  EXPECT_EQ(run({(root_ / "src").string()}), 0) << out_.str();
}

TEST_F(CliTest, UsageErrorsExitTwo) {
  EXPECT_EQ(run({"--no-such-flag"}), 2);
  EXPECT_NE(err_.str().find("--help"), std::string::npos);
  EXPECT_EQ(run({}), 2);  // no paths
  EXPECT_EQ(run_cli({"--layers"}, out_, err_), 2);  // missing value
  // Unreadable layers file or target path: I/O error, not findings.
  EXPECT_EQ(run_cli({"--layers", "/nonexistent/layers.txt", "src"}, out_,
                    err_),
            2);
  EXPECT_EQ(run({(root_ / "no-such-dir").string()}), 2);
}

TEST_F(CliTest, ListRulesPrintsEveryRuleAndExitsZero) {
  EXPECT_EQ(run({"--list-rules"}), 0);
  for (const RuleInfo& rule : rule_infos()) {
    EXPECT_NE(out_.str().find(rule.name), std::string::npos) << rule.name;
  }
}

TEST_F(CliTest, ReportUnusedAllowsFlagSurfacesStaleSuppressions) {
  write("src/util/stale.hpp",
        "// xlf-lint: allow(hot-alloc)\nint fine();\n");
  // Without the flag the stale comment is invisible...
  EXPECT_EQ(run({(root_ / "src").string()}), 0) << out_.str();
  // ...with it, the run fails and names the comment.
  EXPECT_EQ(run({"--report-unused-allows", (root_ / "src").string()}), 1);
  EXPECT_NE(out_.str().find("[unused-allow]"), std::string::npos)
      << out_.str();
  EXPECT_NE(out_.str().find("stale.hpp:1"), std::string::npos);
}

}  // namespace
}  // namespace xlf::lint
