#include "paradigms/cnn.h"

#include "lang/func.h"
#include "support/error.h"
#include "support/logging.h"

namespace ark::paradigms::cnn {

using lang::GraphBuilder;
using support::cat;
using support::SemaError;

const std::string &
cnnSource()
{
    // Figure 10a. Deviations: the cell self edge is iE in both the
    // production rule and the constraint; external inputs are carried
    // by an Inp attribute `u` (the paper's listing reads var(s) of a
    // stateless node); cstr V admits the B-template input edges the
    // prod rules require.
    static const std::string source = R"ARK(
lang cnn {
    ntyp(1,sum) V {attr z=real[-10,10]};
    ntyp(0,sum) Out {};
    ntyp(0,sum) Inp {attr u=real[-10,10]};
    etyp iE {};
    etyp fE {attr g=real[-10,10]};

    prod(e:fE,s:Inp->t:V) t <= e.g*s.u;
    prod(e:iE,s:V->t:Out) t <= sat(var(s));
    prod(e:iE,s:V->s:V) s <= s.z - var(s);
    prod(e:fE,s:Out->t:V) t <= e.g*var(s);

    cstr V {acc[match(1,1,iE,V->[Out]),
                match(4,9,fE,[Out]->V),
                match(4,9,fE,[Inp]->V),
                match(1,1,iE,V)]}
    cstr Out {acc[match(4,9,fE,Out->[V]),
                  match(1,1,iE,[V]->Out)]}
    cstr Inp {acc[match(4,9,fE,Inp->[V])]}
}
)ARK";
    return source;
}

const std::string &
hwCnnSource()
{
    // Figure 10b, with the Inp rule adapted to the `u` attribute.
    static const std::string source = R"ARK(
lang hw-cnn inherits cnn {
    ntyp(0,sum) OutNL inherit Out {};
    ntyp(1,sum) Vm inherit V {attr z=real[-10,10],
                              attr mm=real[1,1] mm(0,0.1)};
    etyp fEm inherit fE {attr g=real[-10,10] mm(0,0.1)};

    prod(e:fE,s:Inp->t:Vm) t <= e.g*t.mm*s.u;
    prod(e:iE,s:Vm->s:Vm) s <= s.mm*(s.z - var(s));
    prod(e:fE,s:Out->t:Vm) t <= e.g*t.mm*var(s);
    prod(e:iE,s:V->t:OutNL) t <= sat_ni(var(s));
}
)ARK";
    return source;
}

void
registerAll(lang::LanguageRegistry &registry)
{
    registry.addProgram(cnnSource());
    registry.addProgram(hwCnnSource());
}

Template
edgeDetectA()
{
    // Chua-Yang EDGE template: self-feedback only.
    return Template{0, 0, 0, 0, 2, 0, 0, 0, 0};
}

Template
edgeDetectB()
{
    // 8-neighbour Laplacian.
    return Template{-1, -1, -1, -1, 8, -1, -1, -1, -1};
}

double
edgeDetectZ()
{
    return -1.0;
}

std::string
cellName(int row, int col)
{
    return cat("X_", row, "_", col);
}

dg::Graph
buildCnn(const lang::Language &language, const CnnSpec &spec,
         const std::vector<double> &input)
{
    const int w = spec.width;
    const int h = spec.height;
    if (w < 3 || h < 3)
        throw SemaError("CNN grids must be at least 3x3");
    if (static_cast<int>(input.size()) != w * h) {
        throw SemaError(cat("input image has ", input.size(),
                            " pixels, expected ", w * h));
    }
    const bool needsHw =
        spec.mismatchZ || spec.mismatchG || spec.nonIdealSat;
    if (needsHw && !language.types().hasNodeType("Vm")) {
        throw SemaError(cat("language '", language.name(),
                            "' lacks the hw-cnn nonideality types"));
    }

    const std::string cellType = spec.mismatchZ ? "Vm" : "V";
    const std::string outType = spec.nonIdealSat ? "OutNL" : "Out";
    const std::string weightType = spec.mismatchG ? "fEm" : "fE";

    GraphBuilder builder(language, spec.seed);

    auto outName = [](int r, int c) { return cat("OUT_", r, "_", c); };
    auto inpName = [](int r, int c) { return cat("IN_", r, "_", c); };

    // Cells, outputs, inputs, and per-cell local edges.
    for (int r = 0; r < h; ++r) {
        for (int c = 0; c < w; ++c) {
            std::string cell = cellName(r, c);
            builder.node(cell, cellType);
            builder.attr(cell, "z", spec.z);
            if (spec.mismatchZ)
                builder.attr(cell, "mm", 1.0);
            if (spec.initFromInput) {
                builder.init(cell, 0,
                             input[static_cast<std::size_t>(r * w + c)]);
            }
            builder.node(outName(r, c), outType);
            builder.node(inpName(r, c), "Inp");
            builder.attr(inpName(r, c), "u",
                         input[static_cast<std::size_t>(r * w + c)]);
            builder.edge(cat("self_", cell), "iE", cell, cell);
            builder.edge(cat("io_", cell), "iE", cell, outName(r, c));
        }
    }

    // Full 3x3 programmable neighbourhood: A edges from neighbouring
    // outputs, B edges from neighbouring inputs.
    for (int r = 0; r < h; ++r) {
        for (int c = 0; c < w; ++c) {
            std::string cell = cellName(r, c);
            for (int dr = -1; dr <= 1; ++dr) {
                for (int dc = -1; dc <= 1; ++dc) {
                    int nr = r + dr;
                    int nc = c + dc;
                    if (nr < 0 || nr >= h || nc < 0 || nc >= w)
                        continue;
                    auto k = static_cast<std::size_t>(
                        (dr + 1) * 3 + (dc + 1));
                    std::string aEdge =
                        cat("A_", r, "_", c, "_", dr + 1, dc + 1);
                    builder.edge(aEdge, weightType, outName(nr, nc),
                                 cell);
                    builder.attr(aEdge, "g", spec.a[k]);
                    std::string bEdge =
                        cat("B_", r, "_", c, "_", dr + 1, dc + 1);
                    builder.edge(bEdge, weightType, inpName(nr, nc),
                                 cell);
                    builder.attr(bEdge, "g", spec.b[k]);
                }
            }
        }
    }
    return builder.take();
}

} // namespace ark::paradigms::cnn
