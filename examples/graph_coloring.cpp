/**
 * @file
 * Domain example: 3-colour a random flat graph through the hybrid
 * solver (the paper's GC benchmark domain) and print the colouring.
 *
 *   ./build/examples/graph_coloring [vertices] [edges]
 */

#include <cstdio>
#include <cstdlib>

#include "core/hybrid_solver.h"
#include "core/options.h"
#include "gen/graph_coloring.h"

using namespace hyqsat;

int
main(int argc, char **argv)
{
    const int vertices = argc > 1 ? std::atoi(argv[1]) : 30;
    const int edges =
        argc > 2 ? std::atoi(argv[2]) : vertices * 2;

    std::printf("3-colouring a random flat graph with %d vertices "
                "and %d edges...\n",
                vertices, edges);
    Rng rng(0xc010f);
    const auto instance = gen::flatGraph(vertices, edges, 3, rng);
    const auto cnf = gen::encodeColoring(instance);
    std::printf("Encoded as CNF: %d variables, %d clauses\n",
                cnf.numVars(), cnf.numClauses());

    core::HybridConfig config;
    core::useNoiseFreeDevice(config);
    core::HybridSolver solver(config);
    const auto result = solver.solve(cnf);

    if (!result.status.isTrue()) {
        std::printf("unexpected: flat graphs are 3-colourable by "
                    "construction\n");
        return 1;
    }

    // Decode colour classes from the model.
    auto color_of = [&](int v) {
        for (int c = 0; c < 3; ++c)
            if (result.model[v * 3 + c])
                return c;
        return -1;
    };
    const char *palette[3] = {"red", "green", "blue"};
    int counts[3] = {};
    for (int v = 0; v < vertices; ++v)
        ++counts[color_of(v)];
    std::printf("\nColouring found with %llu CDCL iterations and %d "
                "QA samples:\n",
                static_cast<unsigned long long>(
                    result.stats.iterations),
                result.qa_samples);
    std::printf("  class sizes: %d %s, %d %s, %d %s\n", counts[0],
                palette[0], counts[1], palette[1], counts[2],
                palette[2]);

    // Verify no edge is monochromatic.
    int violations = 0;
    for (const auto &[a, b] : instance.edges)
        violations += (color_of(a) == color_of(b));
    std::printf("  edge violations: %d (must be 0)\n", violations);

    if (vertices <= 40) {
        std::printf("\nVertex colours:\n  ");
        for (int v = 0; v < vertices; ++v)
            std::printf("%d:%s ", v, palette[color_of(v)]);
        std::printf("\n");
    }
    return violations == 0 ? 0 : 1;
}
