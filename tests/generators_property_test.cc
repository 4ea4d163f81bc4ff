// Distribution properties of the synthetic dataset generators: the
// structural features the substitution argument in DESIGN.md relies on
// (degree/popularity skew, attribute mixes, schema invariants).

#include <algorithm>
#include <cmath>
#include <functional>
#include <map>
#include <random>
#include <string>

#include <gtest/gtest.h>

#include "core/bi_qgen.h"
#include "core/rf_qgen.h"
#include "obs/trace.h"
#include "scenario_fixture.h"
#include "workload/citation_generator.h"
#include "workload/movie_kg_generator.h"
#include "workload/social_net_generator.h"

namespace fairsqg {
namespace {

TEST(SocialNetPropertyTest, EveryPersonWorksSomewhereExactlyOnce) {
  auto schema = std::make_shared<Schema>();
  SocialNetParams p;
  p.num_users = 400;
  p.num_directors = 50;
  p.num_orgs = 20;
  Graph g = GenerateSocialNetwork(p, schema).ValueOrDie();
  LabelId works = g.schema().EdgeLabelId("worksAt");
  for (const char* label : {"user", "director"}) {
    for (NodeId v : g.NodesWithLabel(g.schema().NodeLabelId(label))) {
      size_t count = 0;
      for (const AdjEntry& e : g.OutEdges(v)) {
        if (e.edge_label == works) ++count;
      }
      EXPECT_EQ(count, 1u) << label << " " << v;
    }
  }
}

TEST(SocialNetPropertyTest, GenderRatioTracksParameter) {
  auto schema = std::make_shared<Schema>();
  SocialNetParams p;
  p.num_users = 2000;
  p.num_directors = 200;
  p.num_orgs = 30;
  p.female_ratio = 0.3;
  Graph g = GenerateSocialNetwork(p, schema).ValueOrDie();
  AttrId gender = g.schema().AttrIdOf("gender");
  size_t female = 0;
  size_t total = 0;
  for (NodeId v : g.NodesWithLabel(g.schema().NodeLabelId("user"))) {
    const AttrValue* value = g.GetAttr(v, gender);
    ASSERT_NE(value, nullptr);
    ++total;
    if (value->as_string() == "female") ++female;
  }
  EXPECT_NEAR(static_cast<double>(female) / static_cast<double>(total), 0.3,
              0.05);
}

TEST(SocialNetPropertyTest, RecommendationPopularityIsSkewed) {
  auto schema = std::make_shared<Schema>();
  SocialNetParams p;
  p.num_users = 1500;
  p.num_directors = 150;
  p.num_orgs = 25;
  Graph g = GenerateSocialNetwork(p, schema).ValueOrDie();
  LabelId rec = g.schema().EdgeLabelId("recommend");
  // Preferential attachment: the most-recommended person should collect
  // far more endorsements than the median person.
  std::vector<size_t> in_rec;
  for (NodeId v = 0; v < g.num_nodes(); ++v) {
    size_t count = 0;
    for (const AdjEntry& e : g.InEdges(v)) {
      if (e.edge_label == rec) ++count;
    }
    in_rec.push_back(count);
  }
  std::sort(in_rec.begin(), in_rec.end());
  size_t max = in_rec.back();
  size_t median = in_rec[in_rec.size() / 2];
  EXPECT_GT(max, 5 * (median + 1));
}

TEST(MovieKgPropertyTest, EveryMovieHasDirectorAndStudio) {
  auto schema = std::make_shared<Schema>();
  MovieKgParams p;
  p.num_movies = 500;
  p.num_directors = 100;
  p.num_actors = 250;
  p.num_studios = 20;
  Graph g = GenerateMovieKg(p, schema).ValueOrDie();
  LabelId directed = g.schema().EdgeLabelId("directed");
  LabelId produced = g.schema().EdgeLabelId("producedBy");
  for (NodeId m : g.NodesWithLabel(g.schema().NodeLabelId("movie"))) {
    size_t directors = 0;
    for (const AdjEntry& e : g.InEdges(m)) {
      if (e.edge_label == directed) ++directors;
    }
    EXPECT_GE(directors, 1u) << "movie " << m;
    size_t studios = 0;
    for (const AdjEntry& e : g.OutEdges(m)) {
      if (e.edge_label == produced) ++studios;
    }
    EXPECT_EQ(studios, 1u) << "movie " << m;
  }
}

TEST(MovieKgPropertyTest, GenresAreSkewedCategoricals) {
  auto schema = std::make_shared<Schema>();
  MovieKgParams p;
  p.num_movies = 2000;
  p.num_directors = 300;
  p.num_actors = 800;
  p.num_studios = 40;
  Graph g = GenerateMovieKg(p, schema).ValueOrDie();
  AttrId genre = g.schema().AttrIdOf("genre");
  std::map<std::string, size_t> histogram;
  for (NodeId m : g.NodesWithLabel(g.schema().NodeLabelId("movie"))) {
    const AttrValue* value = g.GetAttr(m, genre);
    ASSERT_NE(value, nullptr);
    ++histogram[value->as_string()];
  }
  EXPECT_GE(histogram.size(), 5u);
  size_t max = 0;
  size_t min = p.num_movies;
  for (const auto& [name, count] : histogram) {
    max = std::max(max, count);
    min = std::min(min, count);
  }
  // DBpedia-like genre skew: top genre dwarfs the rarest.
  EXPECT_GT(max, 5 * min);
}

TEST(MovieKgPropertyTest, RatingsAreOneDecimalInRange) {
  auto schema = std::make_shared<Schema>();
  MovieKgParams p;
  p.num_movies = 300;
  p.num_directors = 60;
  p.num_actors = 150;
  p.num_studios = 10;
  Graph g = GenerateMovieKg(p, schema).ValueOrDie();
  AttrId rating = g.schema().AttrIdOf("rating");
  for (NodeId m : g.NodesWithLabel(g.schema().NodeLabelId("movie"))) {
    const AttrValue* value = g.GetAttr(m, rating);
    ASSERT_NE(value, nullptr);
    double r = value->as_double();
    EXPECT_GE(r, 3.0);
    EXPECT_LE(r, 9.5);
    EXPECT_NEAR(r * 10.0, std::round(r * 10.0), 1e-9) << "one decimal place";
  }
}

TEST(CitationPropertyTest, CitationsPointBackwardsInTime) {
  auto schema = std::make_shared<Schema>();
  CitationParams p;
  p.num_papers = 800;
  p.num_authors = 300;
  Graph g = GenerateCitationGraph(p, schema).ValueOrDie();
  LabelId cites = g.schema().EdgeLabelId("cites");
  AttrId year = g.schema().AttrIdOf("year");
  for (NodeId v : g.NodesWithLabel(g.schema().NodeLabelId("paper"))) {
    for (const AdjEntry& e : g.OutEdges(v)) {
      if (e.edge_label != cites) continue;
      EXPECT_LE(g.GetAttr(e.neighbor, year)->as_int() - 2,
                g.GetAttr(v, year)->as_int())
          << v << " cites a much newer paper " << e.neighbor;
    }
  }
}

TEST(CitationPropertyTest, NumberOfCitationsMatchesInDegree) {
  auto schema = std::make_shared<Schema>();
  CitationParams p;
  p.num_papers = 600;
  p.num_authors = 200;
  Graph g = GenerateCitationGraph(p, schema).ValueOrDie();
  LabelId cites = g.schema().EdgeLabelId("cites");
  AttrId attr = g.schema().AttrIdOf("numberOfCitations");
  for (NodeId v : g.NodesWithLabel(g.schema().NodeLabelId("paper"))) {
    size_t in_cites = 0;
    for (const AdjEntry& e : g.InEdges(v)) {
      if (e.edge_label == cites) ++in_cites;
    }
    // The attribute is derived from pre-dedup edge counts, so it can only
    // exceed the deduplicated in-degree.
    EXPECT_GE(static_cast<size_t>(g.GetAttr(v, attr)->as_int()), in_cites);
  }
}

// Property form of the observability differential (DESIGN.md §13): across
// randomized scenario seeds and epsilons, enabling full tracing never
// changes a query generator's archive. Complements the fixed-config
// sweep in observability_test.cc with scenario diversity.
TEST(QGenPropertyTest, ArchivesInvariantUnderObservability) {
  std::mt19937 rng(7);
  for (int round = 0; round < 3; ++round) {
    uint64_t seed = rng();
    double epsilon = 0.02 + 0.02 * static_cast<double>(round);
    SmallScenario s(seed);
    struct {
      const char* name;
      std::function<Result<QGenResult>(const QGenConfig&)> run;
    } runners[] = {
        {"RfQGen", [](const QGenConfig& c) { return RfQGen::Run(c); }},
        {"BiQGen/parallel",
         [](const QGenConfig& c) { return BiQGen::RunParallel(c, 4); }},
    };
    for (const auto& runner : runners) {
      std::string label = std::string(runner.name) + " seed=" +
                          std::to_string(seed) +
                          " eps=" + std::to_string(epsilon);
      obs::Tracer::Global().Disable();
      QGenResult plain = runner.run(s.Config(epsilon)).ValueOrDie();

      obs::Tracer::Global().Enable(obs::TraceDetail::kFull);
      QGenResult observed = runner.run(s.Config(epsilon)).ValueOrDie();
      obs::Tracer::Global().Disable();

      ASSERT_EQ(plain.pareto.size(), observed.pareto.size()) << label;
      for (size_t i = 0; i < plain.pareto.size(); ++i) {
        EXPECT_EQ(plain.pareto[i]->inst, observed.pareto[i]->inst) << label;
        EXPECT_EQ(plain.pareto[i]->matches, observed.pareto[i]->matches)
            << label;
        EXPECT_DOUBLE_EQ(plain.pareto[i]->obj.diversity,
                         observed.pareto[i]->obj.diversity)
            << label;
        EXPECT_DOUBLE_EQ(plain.pareto[i]->obj.coverage,
                         observed.pareto[i]->obj.coverage)
            << label;
      }
      EXPECT_EQ(plain.stats.verified, observed.stats.verified) << label;
    }
  }
}

TEST(GeneratorsTest, RejectEmptyPopulations) {
  auto schema = std::make_shared<Schema>();
  SocialNetParams s;
  s.num_users = 0;
  EXPECT_FALSE(GenerateSocialNetwork(s, schema).ok());
  MovieKgParams m;
  m.num_studios = 0;
  EXPECT_FALSE(GenerateMovieKg(m, schema).ok());
  CitationParams c;
  c.num_papers = 0;
  EXPECT_FALSE(GenerateCitationGraph(c, schema).ok());
}

}  // namespace
}  // namespace fairsqg
