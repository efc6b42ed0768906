#include <gtest/gtest.h>

#include <random>

#include "detect/compiled_query.hpp"
#include "query/parser.hpp"
#include "test_helpers.hpp"

using namespace spectre;
using namespace spectre::query;
using spectre::testing::TestEnv;

TEST(Parser, SimpleSequenceQuery) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A B) "
        "DEFINE A AS TYPE = 'A', B AS TYPE = 'B' "
        "WITHIN 100 EVENTS FROM EVERY 10 EVENTS "
        "CONSUME ALL",
        env.schema);
    ASSERT_EQ(q.pattern.elements.size(), 2u);
    EXPECT_EQ(q.pattern.elements[0].name, "A");
    EXPECT_EQ(q.pattern.elements[1].kind, ElementKind::Single);
    EXPECT_EQ(q.window.kind, WindowKind::SlidingCount);
    EXPECT_EQ(q.window.size, 100u);
    EXPECT_EQ(q.window.slide, 10u);
    EXPECT_EQ(q.consumption.kind, ConsumptionPolicy::Kind::All);
}

TEST(Parser, Q1StyleQueryWithLeadersAndSelfRefs) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (MLE RE1 RE2) "
        "DEFINE MLE AS SYMBOL IN ('AAPL','IBM') AND MLE.close > MLE.open, "
        "       RE1 AS RE1.close > RE1.open, "
        "       RE2 AS RE2.close > RE2.open "
        "WITHIN 8000 EVENTS FROM MLE "
        "CONSUME (MLE RE1 RE2)",
        env.schema);
    EXPECT_EQ(q.pattern.elements.size(), 3u);
    EXPECT_EQ(q.window.kind, WindowKind::PredicateOpen);
    EXPECT_EQ(q.window.size, 8000u);
    EXPECT_EQ(q.consumption.kind, ConsumptionPolicy::Kind::Subset);
    // Self-references compile to current-event attrs, so the open predicate
    // is standalone-evaluable.
    event::Event e;
    e.type = env.schema->lookup_type("QUOTE");
    e.subject = env.schema->lookup_subject("IBM");
    const auto open = env.schema->lookup_attr("open");
    const auto close = env.schema->lookup_attr("close");
    ASSERT_NE(open, event::kMaxAttrs);
    ASSERT_NE(close, event::kMaxAttrs);
    e.set_attr(open, 1.0);
    e.set_attr(close, 2.0);
    EvalContext ctx;
    ctx.current = &e;
    EXPECT_TRUE(eval_bool(q.window.open_pred, ctx));
}

TEST(Parser, Q2StyleKleenePlusAndConsumeWithPlusMarks) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A B+ C) "
        "DEFINE A AS close < 10, "
        "       B AS close > 10 AND close < 20, "
        "       C AS close > 20 "
        "WITHIN 8000 EVENTS FROM EVERY 1000 EVENTS "
        "CONSUME (A B+ C)",
        env.schema);
    EXPECT_EQ(q.pattern.elements[1].kind, ElementKind::Plus);
    EXPECT_EQ(q.consumption.elements,
              (std::vector<std::string>{"A", "B", "C"}));
}

TEST(Parser, Q3StyleSetQuery) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A SET(X1 X2 X3)) "
        "DEFINE A AS SYMBOL = 'AAPL', "
        "       X1 AS SYMBOL = 'IBM', X2 AS SYMBOL = 'HPQ', X3 AS SYMBOL = 'MU' "
        "WITHIN 1000 EVENTS FROM EVERY 100 EVENTS "
        "CONSUME ALL",
        env.schema);
    ASSERT_EQ(q.pattern.elements.size(), 2u);
    EXPECT_EQ(q.pattern.elements[1].kind, ElementKind::Set);
    EXPECT_EQ(q.pattern.elements[1].members.size(), 3u);
    EXPECT_EQ(q.pattern.elements[1].members[1].name, "X2");
    EXPECT_EQ(q.pattern.min_length(), 4);
}

TEST(Parser, QeStyleTimeWindowStickyAndEmit) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A B) "
        "DEFINE A AS TYPE = 'A', B AS TYPE = 'B' "
        "WITHIN 60 TIME FROM A "
        "SELECT FIRST "
        "STICKY (A) "
        "CONSUME (B) "
        "EMIT factor = B.v / A.v",
        env.schema);
    EXPECT_EQ(q.window.kind, WindowKind::PredicateOpen);
    EXPECT_EQ(q.window.extent, ExtentKind::Time);
    EXPECT_EQ(q.window.duration, 60);
    EXPECT_TRUE(q.pattern.elements[0].sticky);
    EXPECT_FALSE(q.pattern.elements[1].sticky);
    ASSERT_EQ(q.payload.size(), 1u);
    EXPECT_EQ(q.payload[0].name, "factor");
}

TEST(Parser, GuardClauseAttachesNegation) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A B) "
        "DEFINE A AS TYPE = 'A', B AS TYPE = 'B' "
        "GUARD B AS TYPE = 'C' "
        "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
        env.schema);
    EXPECT_EQ(q.pattern.elements[0].guard, nullptr);
    EXPECT_NE(q.pattern.elements[1].guard, nullptr);
}

TEST(Parser, SelectEachAllowsManyMatches) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A) DEFINE A AS TYPE = 'A' "
        "WITHIN 10 EVENTS FROM EVERY 5 EVENTS SELECT EACH",
        env.schema);
    EXPECT_EQ(q.selection, SelectionPolicy::Each);
    EXPECT_EQ(q.max_matches_per_window, 0);
}

TEST(Parser, OperatorPrecedenceIsConventional) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A) DEFINE A AS v + 2 * 3 = 7 AND NOT v > 100 "
        "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
        env.schema);
    const auto e = [&] {
        event::Event ev;
        ev.type = env.schema->lookup_type("QUOTE");
        ev.set_attr(env.schema->lookup_attr("v"), 1.0);
        return ev;
    }();
    EvalContext ctx;
    ctx.current = &e;
    EXPECT_TRUE(eval_bool(q.pattern.elements[0].pred, ctx));  // 1+6=7, !(1>100)
}

TEST(Parser, ErrorsCarryOffsets) {
    TestEnv env;
    try {
        parse_query("PATTERN (A DEFINE", env.schema);
        FAIL() << "expected ParseError";
    } catch (const ParseError& e) {
        EXPECT_NE(std::string(e.what()).find("offset"), std::string::npos);
    }
}

TEST(Parser, RejectsUndefinedElement) {
    TestEnv env;
    EXPECT_THROW(parse_query("PATTERN (A B) DEFINE A AS TYPE = 'A' "
                             "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
                             env.schema),
                 ParseError);
}

TEST(Parser, RejectsForwardBoundReference) {
    TestEnv env;
    // B references C which does not exist as element.
    EXPECT_THROW(parse_query("PATTERN (A B) DEFINE A AS TYPE='A', B AS C.v > 1 "
                             "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
                             env.schema),
                 ParseError);
}

TEST(Parser, RejectsOpenPredicateWithCrossReference) {
    TestEnv env;
    EXPECT_THROW(parse_query("PATTERN (A B) DEFINE A AS B.v > 1, B AS TYPE='B' "
                             "WITHIN 10 EVENTS FROM A",
                             env.schema),
                 ParseError);
}

TEST(Parser, RejectsMixedWindowUnits) {
    TestEnv env;
    EXPECT_THROW(parse_query("PATTERN (A) DEFINE A AS TYPE='A' "
                             "WITHIN 10 EVENTS FROM EVERY 5 TIME",
                             env.schema),
                 ParseError);
}

TEST(Parser, RejectsUnterminatedString) {
    TestEnv env;
    EXPECT_THROW(parse_query("PATTERN (A) DEFINE A AS TYPE = 'A "
                             "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
                             env.schema),
                 ParseError);
}

TEST(Parser, RejectsTrailingGarbage) {
    TestEnv env;
    EXPECT_THROW(parse_query("PATTERN (A) DEFINE A AS TYPE='A' "
                             "WITHIN 10 EVENTS FROM EVERY 5 EVENTS banana",
                             env.schema),
                 ParseError);
}

TEST(Parser, StickyUnknownElementRejected) {
    TestEnv env;
    EXPECT_THROW(parse_query("PATTERN (A) DEFINE A AS TYPE='A' "
                             "WITHIN 10 EVENTS FROM EVERY 5 EVENTS STICKY (Z)",
                             env.schema),
                 ParseError);
}

TEST(Parser, SymbolInListAndNotEquals) {
    TestEnv env;
    const auto q = parse_query(
        "PATTERN (A) DEFINE A AS SYMBOL IN ('X','Y') AND SYMBOL != 'Z' "
        "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
        env.schema);
    event::Event e;
    e.subject = env.schema->lookup_subject("Y");
    EvalContext ctx;
    ctx.current = &e;
    EXPECT_TRUE(eval_bool(q.pattern.elements[0].pred, ctx));
    e.subject = env.schema->lookup_subject("Z");
    EXPECT_FALSE(eval_bool(q.pattern.elements[0].pred, ctx));
}

// Deterministic mutation sweep over parse_query + CompiledQuery::compile, the
// path every HELLO takes with client-supplied text. Seeded byte- and
// token-level mutations of valid queries must each end in one of three ways:
// a compiled query, a ParseError whose offset lies inside the text, or a
// std::invalid_argument from the query's validation. An internal invariant
// failure (std::logic_error), any other exception, or a crash (caught by the
// sanitizer legs) is a parser bug.
TEST(Parser, SeededMutationSweepOnlyAcceptsOrRejectsCleanly) {
    const std::vector<std::string> corpus = {
        "PATTERN (A B) DEFINE A AS TYPE = 'A', B AS TYPE = 'B' "
        "WITHIN 100 EVENTS FROM EVERY 10 EVENTS CONSUME ALL",
        "PATTERN (MLE RE1 RE2) DEFINE MLE AS SYMBOL IN ('AAPL','IBM') AND "
        "MLE.close > MLE.open, RE1 AS RE1.close > RE1.open, RE2 AS RE2.close > RE2.open "
        "WITHIN 8000 EVENTS FROM MLE CONSUME (MLE RE1 RE2)",
        "PATTERN (A B+ C) DEFINE A AS v < 95, B AS v >= 95 AND v <= 105, C AS v > 105 "
        "WITHIN 800 EVENTS FROM EVERY 100 EVENTS CONSUME (A B+ C)",
        "PATTERN (A SET(X Y Z)) DEFINE A AS SYMBOL = 'A', X AS SYMBOL = 'X', "
        "Y AS SYMBOL = 'Y', Z AS SYMBOL = 'Z' WITHIN 50 EVENTS FROM EVERY 5 EVENTS CONSUME ALL",
        "PATTERN (A B) DEFINE A AS TYPE = 'A', B AS TYPE = 'B' WITHIN 60 TIME FROM A "
        "SELECT FIRST STICKY (A) CONSUME (B) EMIT factor = B.v / A.v",
        "PATTERN (A B) DEFINE A AS TYPE = 'A', B AS TYPE = 'B' GUARD B AS TYPE = 'C' "
        "WITHIN 10 EVENTS FROM EVERY 5 EVENTS SELECT EACH",
        "PATTERN (R1 R2 R3) DEFINE R1 AS R1.close > R1.open, R2 AS R2.close > R2.open, "
        "R3 AS R3.close > R3.open WITHIN 24 EVENTS FROM EVERY 6 EVENTS "
        "PARTITION BY SUBJECT CONSUME ALL EMIT gain = R3.close - R1.open",
        "PATTERN (A) DEFINE A AS v + 2 * 3 = 7 AND NOT v > 100 OR SYMBOL != 'Z' "
        "WITHIN 10 EVENTS FROM EVERY 5 EVENTS",
    };
    const std::vector<std::string> tokens = {
        "PATTERN", "DEFINE", "GUARD", "WITHIN", "EVENTS", "TIME", "FROM", "EVERY",
        "PARTITION BY", "SELECT", "EACH", "FIRST", "CONSUME", "ALL", "NONE", "EMIT",
        "STICKY", "SET", "AS", "AND", "OR", "NOT", "IN", "SYMBOL", "TYPE", "(", ")",
        ",", "+", "-", "*", "/", "=", "!=", "<=", ">", ".", "'", "'X'", "A", "B.v",
        "0", "-1", "1e308", "99999999999999999999", "0.5", " ", "\n", "\t",
    };
    std::mt19937 rng(20261020);
    const auto pick = [&](std::size_t n) { return n == 0 ? 0 : rng() % n; };

    std::size_t accepted = 0, rejected = 0;
    for (int iter = 0; iter < 20'000; ++iter) {
        std::string text = corpus[pick(corpus.size())];
        const int edits = 1 + static_cast<int>(rng() % 3);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = pick(text.size() + 1);
            switch (rng() % 5) {
                case 0:  // overwrite one byte with any byte value
                    if (at < text.size()) text[at] = static_cast<char>(rng() % 256);
                    break;
                case 1:  // delete a short span
                    text.erase(at, 1 + pick(8));
                    break;
                case 2:  // duplicate a short span
                    text.insert(at, text.substr(at, 1 + pick(12)));
                    break;
                case 3:  // insert a grammar token
                    text.insert(at, " " + tokens[pick(tokens.size())] + " ");
                    break;
                default:  // truncate
                    text.resize(at);
                    break;
            }
        }

        const auto schema = std::make_shared<event::Schema>();
        try {
            const auto q = parse_query(text, schema);
            (void)detect::CompiledQuery::compile(q);
            ++accepted;
        } catch (const ParseError& err) {
            EXPECT_LE(err.position(), text.size()) << "iter=" << iter << " text=" << text;
            ++rejected;
        } catch (const std::invalid_argument&) {
            ++rejected;
        } catch (const std::exception& err) {
            ADD_FAILURE() << "iter=" << iter << " text=" << text << " threw " << err.what();
        }
    }
    // The sweep must exercise both sides: mutations that still compile, and
    // mutations the front end turns away.
    EXPECT_GT(accepted, 100u);
    EXPECT_GT(rejected, 10'000u);
}
