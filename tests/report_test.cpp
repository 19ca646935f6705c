#include <gtest/gtest.h>

#include <sstream>

#include "core/report.hpp"
#include "frontend/benchgen.hpp"
#include "frontend/to_bdd.hpp"

namespace compact::core {
namespace {

TEST(ReportTest, ContainsAllSections) {
  const frontend::network net = frontend::make_comparator(3);
  synthesis_options options;
  options.labeler = "mip";
  options.time_limit_seconds = 5.0;
  bdd::manager m(net.input_count());
  const frontend::sbdd built = frontend::build_sbdd(net, m);
  const synthesis_result r = synthesize(m, built.roots, built.names, options);
  const xbar::equivalence_report validation = xbar::validate(
      r.design, m, built.roots, built.names, net.input_count());

  report_inputs inputs;
  inputs.circuit_name = net.name();
  inputs.stats = &r.stats;
  inputs.labels = &r.labels;
  inputs.validation = &validation;
  std::ostringstream os;
  write_report(inputs, os);
  const std::string text = os.str();

  EXPECT_NE(text.find("# COMPACT synthesis report — cmp3"),
            std::string::npos);
  EXPECT_NE(text.find("## Crossbar"), std::string::npos);
  EXPECT_NE(text.find("## Labeling"), std::string::npos);
  EXPECT_NE(text.find("## Validation"), std::string::npos);
  EXPECT_NE(text.find("semiperimeter S"), std::string::npos);
  EXPECT_NE(text.find("label histogram"), std::string::npos);
  EXPECT_NE(text.find("**PASS**"), std::string::npos);
  // MIP runs carry a convergence section.
  EXPECT_NE(text.find("## Solver convergence"), std::string::npos);
}

TEST(ReportTest, ValidationSectionOptional) {
  const frontend::network net = frontend::make_parity(4, 1);
  synthesis_options options;
  options.labeler = "oct";
  const synthesis_result r = synthesize(net, options);
  report_inputs inputs;
  inputs.stats = &r.stats;
  inputs.labels = &r.labels;
  std::ostringstream os;
  write_report(inputs, os);
  EXPECT_EQ(os.str().find("## Validation"), std::string::npos);
}

TEST(ReportTest, RequiresAResult) {
  report_inputs inputs;
  std::ostringstream os;
  EXPECT_THROW(write_report(inputs, os), error);
}

}  // namespace
}  // namespace compact::core
