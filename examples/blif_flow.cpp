// File-based flow through the stable public API: BLIF in, crossbar stats
// out (the tool-style entry point of Figure 2: "the Boolean function is
// specified using a Verilog, BLIF or PLA file"). Uses only
// api/compact_api.hpp: parse + BDD build + synthesis + validation all run
// behind one call.
//
//   $ ./blif_flow circuit.blif            # read a file
//   $ ./blif_flow                         # demo on a built-in netlist
#include <iostream>

#include "api/compact_api.hpp"

namespace {

constexpr const char* demo_blif = R"(
.model demo
.inputs x0 x1 x2 x3
.outputs carry sum
.names x0 x1 g
11 1
.names x0 x1 p
10 1
01 1
.names p x2 t
11 1
.names g t carry
1- 1
-1 1
.names p x2 sum
10 1
01 1
.names sum x3 sum2
10 1
01 1
.end
)";

}  // namespace

int main(int argc, char** argv) {
  namespace api = compact::api;

  api::netlist_source source;
  if (argc > 1) {
    source.path = argv[1];
  } else {
    std::cout << "(no file given; using the built-in demo netlist)\n\n";
    source.text = demo_blif;
  }

  api::request_v1 request;
  request.op = "synthesize";
  request.api_version = COMPACT_API_VERSION;
  request.source = source;
  request.synthesis.labeler = "mip";
  request.synthesis.gamma = 0.5;
  request.synthesis.time_limit_seconds = 30.0;
  request.synthesis.validate = true;  // check the design against source BDDs

  // handle() never throws: every failure comes back as a structured code.
  const api::response_v1 r = api::handle(request);
  if (!r.ok) {
    std::cerr << api::error_code_name(r.code) << ": " << r.error_message
              << "\n";
    return 2;
  }

  std::cout << "outputs:";
  for (const std::string& name : r.output_names) std::cout << ' ' << name;
  std::cout << "\nBDD graph nodes:         " << r.stats.graph_nodes
            << "\nVH labels:               " << r.stats.vh_count
            << "\nrows x cols:             " << r.stats.rows << " x "
            << r.stats.columns
            << "\nsemiperimeter:           " << r.stats.semiperimeter
            << "\nmax dimension:           " << r.stats.max_dimension
            << "\nlabeling proven optimal: "
            << (r.stats.optimal ? "yes" : "no")
            << "\nsynthesis time (s):      " << r.stats.synthesis_seconds
            << "\n\nvalidity: " << r.validation.detail << "\n";
  return r.validation.passed ? 0 : 1;
}
