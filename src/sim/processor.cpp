#include "sim/simulator.hpp"

#include "ir/eval.hpp"

namespace raw {

void
Simulator::step_proc(int tile, int64_t now)
{
    Proc &p = procs_[tile];
    if (p.halted) {
        account_proc(tile, now, ProcCycle::kIdle);
        return;
    }

    // Clock-jitter channel: this tile loses its cycle entirely.
    if (jitter_hit()) {
        stats_.proc_stall_cycles++;
        account_proc(tile, now, ProcCycle::kOperandWait);
        return;
    }

    const std::vector<PInstr> &code = prog_.tiles[tile].code;
    check(p.pc >= 0 && p.pc < static_cast<int64_t>(code.size()),
          "processor ran off the end of its stream");
    const PInstr &in = code[p.pc];

    // Outstanding dynamic-network request: pump the remaining
    // request words into the network, then wait for the reply.
    if (p.waiting_dyn) {
        if (p.inject_pos < p.inject.size()) {
            if (req_plane_.can_inject(tile, now)) {
                req_plane_.inject(tile, now, p.inject[p.inject_pos++]);
                progress_ = true;
                if (p.inject_pos == p.inject.size()) {
                    p.inject.clear();
                    p.inject_pos = 0;
                }
                account_proc(tile, now, ProcCycle::kMemWait);
            } else {
                stats_.proc_stall_cycles++;
                account_proc(tile, now, ProcCycle::kSendBlocked);
            }
            return;
        }
        DynState &d = dyn_[tile];
        if (d.reply_ready && d.reply_time <= now) {
            if (in.op == Op::kDynLoad && in.dst >= 0) {
                p.regs[in.dst] = d.reply_value;
                p.busy[in.dst] = now + 1;
            }
            d.reply_ready = false;
            p.waiting_dyn = false;
            p.dyn_home = -1;
            p.pc++;
            stats_.instrs_executed++;
            progress_ = true;
            account_proc(tile, now, ProcCycle::kIssued);
            account_issue(tile, in.op);
        } else {
            stats_.proc_stall_cycles++;
            account_proc(tile, now, ProcCycle::kMemWait);
        }
        return;
    }

    auto ready = [&](int r) {
        if (r == kPortOperand)
            return s2p_[tile].can_pop(now);
        return r < 0 || p.busy[r] <= now;
    };
    // Read a source operand; a port operand consumes the word (only
    // call once per operand, after every readiness check passed).
    // @p slot distinguishes the two operand positions of one static
    // consumption point for the provenance checker.
    auto read_src = [&](int r, int slot) -> uint32_t {
        if (r == kPortOperand) {
            uint32_t v = s2p_[tile].pop(now);
            if (checker_) {
                WordProv o =
                    checker_->take_s2p(tile, s2p_[tile], now);
                checker_->consume_proc(tile, p.pc, slot, o, v, now);
            }
            return v;
        }
        return r >= 0 ? p.regs[r] : 0;
    };
    // Mirror a p2s push in the provenance shadow (origin = this pc).
    auto sent = [&] {
        if (checker_)
            checker_->send_p2s(tile, p.pc, p2s_[tile], now);
    };
    // Why is operand @p r not ready: empty input port or scoreboard?
    auto wait_cat = [&](int r) {
        return r == kPortOperand ? ProcCycle::kRecvBlocked
                                 : ProcCycle::kOperandWait;
    };
    auto stall = [&](ProcCycle c) {
        stats_.proc_stall_cycles++;
        account_proc(tile, now, c);
    };
    auto done = [&] {
        p.pc++;
        stats_.instrs_executed++;
        progress_ = true;
        account_proc(tile, now, ProcCycle::kIssued);
        account_issue(tile, in.op);
    };

    switch (in.op) {
      case Op::kConst:
        if (in.dst == kPortOperand) {
            if (!p2s_[tile].can_push(now))
                return stall(ProcCycle::kSendBlocked);
            p2s_[tile].push(now, in.imm);
            sent();
        } else {
            p.regs[in.dst] = in.imm;
            p.busy[in.dst] = now + 1;
        }
        done();
        return;

      case Op::kSend: {
        if (!ready(in.src[0]))
            return stall(wait_cat(in.src[0]));
        if (!p2s_[tile].can_push(now))
            return stall(ProcCycle::kSendBlocked);
        uint32_t v = in.src[0] >= 0 ? p.regs[in.src[0]] : 0;
        p2s_[tile].push(now, v);
        sent();
        done();
        return;
      }

      case Op::kRecv: {
        if (!s2p_[tile].can_pop(now))
            return stall(ProcCycle::kRecvBlocked);
        uint32_t v = s2p_[tile].pop(now);
        if (checker_) {
            WordProv o = checker_->take_s2p(tile, s2p_[tile], now);
            checker_->consume_proc(tile, p.pc, 0, o, v, now);
        }
        if (in.dst >= 0) {
            p.regs[in.dst] = v;
            p.busy[in.dst] = now + 1;
        }
        done();
        return;
      }

      case Op::kLoad: {
        if (!ready(in.src[0]))
            return stall(wait_cat(in.src[0]));
        int64_t lat = prog_.machine.latency(FuOp::kLoad) +
                      fault_extra();
        uint32_t v;
        if (in.array == kSpillArray) {
            v = mem_.read_spill(tile, static_cast<int64_t>(in.imm));
        } else {
            int64_t g = prog_.arrays[in.array].base +
                        bits_int(p.regs[in.src[0]]);
            check(mem_.home_of(g) == tile,
                  "static load executed away from its home tile");
            v = mem_.read_local(tile, mem_.local_of(g));
        }
        p.regs[in.dst] = v;
        p.busy[in.dst] = now + lat;
        done();
        return;
      }

      case Op::kStore: {
        if (!ready(in.src[0]))
            return stall(wait_cat(in.src[0]));
        if (!ready(in.src[1]))
            return stall(wait_cat(in.src[1]));
        uint32_t v = read_src(in.src[1], 1);
        if (in.array == kSpillArray) {
            mem_.write_spill(tile, static_cast<int64_t>(in.imm), v);
        } else {
            int64_t g = prog_.arrays[in.array].base +
                        bits_int(p.regs[in.src[0]]);
            check(mem_.home_of(g) == tile,
                  "static store executed away from its home tile");
            mem_.write_local(tile, mem_.local_of(g), v);
        }
        done();
        return;
      }

      case Op::kDynLoad:
      case Op::kDynStore: {
        bool is_store = in.op == Op::kDynStore;
        if (!ready(in.src[0]))
            return stall(wait_cat(in.src[0]));
        if (is_store && !ready(in.src[1]))
            return stall(wait_cat(in.src[1]));
        int64_t g = prog_.arrays[in.array].base +
                    bits_int(p.regs[in.src[0]]);
        int home = mem_.home_of(g);
        if (home == tile) {
            // Run-time check found the data local after all.
            if (is_store) {
                mem_.write_local(tile, mem_.local_of(g),
                                 p.regs[in.src[1]]);
            } else {
                p.regs[in.dst] =
                    mem_.read_local(tile, mem_.local_of(g));
                p.busy[in.dst] = now + 1 +
                                 prog_.machine.latency(FuOp::kLoad) +
                                 fault_extra();
            }
            done();
            return;
        }
        // Compose the request worm; the pump above injects it one
        // word per cycle starting next cycle.
        uint32_t addr_word = int_bits(static_cast<int32_t>(g));
        if (is_store)
            p.inject = {dyn_header(home, tile, 2, DynKind::kStoreReq),
                        addr_word, p.regs[in.src[1]]};
        else
            p.inject = {dyn_header(home, tile, 1, DynKind::kLoadReq),
                        addr_word};
        p.inject_pos = 0;
        stats_.dyn_messages++;
        p.waiting_dyn = true;
        p.dyn_home = home;
        progress_ = true;
        account_proc(tile, now, ProcCycle::kMemWait);
        return;
      }

      case Op::kPrint: {
        if (!ready(in.src[0]))
            return stall(wait_cat(in.src[0]));
        stats_.prints.push_back({in.print_seq,
                                 print_count_[in.print_seq]++,
                                 in.type, read_src(in.src[0], 0)});
        done();
        return;
      }

      case Op::kJump:
        p.pc = in.target;
        stats_.instrs_executed++;
        progress_ = true;
        account_proc(tile, now, ProcCycle::kIssued);
        account_issue(tile, in.op);
        return;

      case Op::kBranch: {
        if (!ready(in.src[0]))
            return stall(wait_cat(in.src[0]));
        p.pc = p.regs[in.src[0]] != 0 ? in.target : p.pc + 1;
        stats_.instrs_executed++;
        progress_ = true;
        account_proc(tile, now, ProcCycle::kIssued);
        account_issue(tile, in.op);
        return;
      }

      case Op::kHalt:
        p.halted = true;
        progress_ = true;
        account_proc(tile, now, ProcCycle::kIssued);
        account_issue(tile, in.op);
        return;

      default: {
        // Computational instruction; sources and destination may be
        // port operands (Section 3.1's port-as-register model).
        for (int s = 0; s < op_num_srcs(in.op); s++)
            if (!ready(in.src[s]))
                return stall(wait_cat(in.src[s]));
        if (in.dst == kPortOperand && !p2s_[tile].can_push(now))
            return stall(ProcCycle::kSendBlocked);
        uint32_t a =
            op_num_srcs(in.op) > 0 ? read_src(in.src[0], 0) : 0;
        uint32_t b =
            op_num_srcs(in.op) > 1 ? read_src(in.src[1], 1) : 0;
        uint32_t out = 0;
        check(eval_op(in.op, a, b, out),
              "processor: unexecutable opcode");
        if (in.dst == kPortOperand) {
            p2s_[tile].push(now, out);
            sent();
        } else {
            p.regs[in.dst] = out;
            p.busy[in.dst] =
                now + prog_.machine.latency(op_fu(in.op));
        }
        done();
        return;
      }
    }
}

} // namespace raw
