#include "sim/simulator.hpp"

#include <algorithm>
#include <bit>

/**
 * @file
 * Dynamic wormhole network and remote-memory handler (Section 5.1).
 *
 * Messages are worms: a header word (destination, source, payload
 * length, kind) followed by payload words, routed dimension-ordered
 * one word per link per cycle with four-deep input buffering.  An
 * output port belongs to one worm until its tail passes (wormhole
 * allocation); free outputs arbitrate round-robin among waiting
 * headers.  Requests and replies travel on separate planes, so the
 * request-reply dependence cannot cycle through shared buffers —
 * together with dimension-ordered routing this makes the network
 * deadlock-free.
 *
 * A remote-memory handler at each tile services assembled requests
 * one at a time (dyn_handler_cycles each), performs the local memory
 * access, and injects the reply (value for loads, ack for stores).
 */

namespace raw {

namespace {

constexpr int kLocal = DynPlane::kLocal;

/** Smallest occupied tile strictly after @p after (-1 to start). */
int
next_occupied(const DynPlane &plane, int after)
{
    const int nw = static_cast<int>(plane.occupied.size());
    int w = (after + 1) >> 6;
    if (w >= nw)
        return -1;
    uint64_t bits = plane.occupied[w] & (~uint64_t(0) << ((after + 1) & 63));
    while (!bits) {
        if (++w >= nw)
            return -1;
        bits = plane.occupied[w];
    }
    return (w << 6) + std::countr_zero(bits);
}

/**
 * Output port a header at @p t bound for @p dst leaves by: kLocal at
 * the destination, else MachineConfig::next_hop's X-then-Y direction
 * from the plane's precomputed rows and columns.
 */
int
route_out(const DynPlane &plane, int t, int dst)
{
    if (dst == t)
        return kLocal;
    int fc = plane.col[t], tc = plane.col[dst];
    if (fc != tc)
        return static_cast<int>(fc < tc ? Dir::kEast : Dir::kWest);
    return static_cast<int>(plane.row[t] < plane.row[dst] ? Dir::kSouth
                                                          : Dir::kNorth);
}

} // namespace

uint32_t
dyn_header(int dst, int src, int len, DynKind kind)
{
    return (static_cast<uint32_t>(dst) & 0x3FF) |
           ((static_cast<uint32_t>(src) & 0x3FF) << 10) |
           ((static_cast<uint32_t>(len) & 0xF) << 20) |
           (static_cast<uint32_t>(kind) << 24);
}

int
dyn_hdr_dst(uint32_t h)
{
    return static_cast<int>(h & 0x3FF);
}

int
dyn_hdr_src(uint32_t h)
{
    return static_cast<int>((h >> 10) & 0x3FF);
}

int
dyn_hdr_len(uint32_t h)
{
    return static_cast<int>((h >> 20) & 0xF);
}

DynKind
dyn_hdr_kind(uint32_t h)
{
    return static_cast<DynKind>((h >> 24) & 0x3);
}

void
DynPlane::init(const MachineConfig &m)
{
    const int n = m.n_tiles;
    in_bufs.clear();
    in_bufs.resize(n);
    for (auto &bufs : in_bufs)
        for (Fifo &f : bufs)
            f = Fifo(4);
    out_owner.assign(n, {-1, -1, -1, -1, -1});
    out_remaining.assign(n, {0, 0, 0, 0, 0});
    in_remaining.assign(n, {0, 0, 0, 0, 0});
    rr.assign(n, {0, 0, 0, 0, 0});
    eject.assign(n, {});
    words.assign(n, 0);
    occupied.assign((n + 63) / 64, 0);
    resident = 0;
    nbr.resize(n);
    row.resize(n);
    col.resize(n);
    for (int t = 0; t < n; t++) {
        for (int d = 0; d < 4; d++)
            nbr[t][d] = m.neighbor(t, static_cast<Dir>(d));
        row[t] = m.row_of(t);
        col[t] = m.col_of(t);
    }
}

/**
 * One plane cycle visits only the tiles holding a word, in ascending
 * order.  This is exact: a tile with no word can neither pop (every
 * move starts with can_pop on one of its inputs) nor push, and a word
 * pushed into a tile this cycle is not poppable before the next
 * (Fifo cycle stamps), so a tile that gains its first word behind or
 * ahead of the cursor does nothing this cycle either way.
 */
void
Simulator::step_plane(DynPlane &plane, int64_t now)
{
    // Route one word per output port per occupied tile per cycle.
    for (int t = next_occupied(plane, -1); t >= 0;
         t = next_occupied(plane, t)) {
        for (int out = 0; out < 5; out++) {
            // Where does this output lead?  Input (out ^ 2) of the
            // neighbor is the opposite direction (N<->S, E<->W).
            int nb = -1;
            if (out != kLocal) {
                nb = plane.nbr[t][out];
                if (nb < 0)
                    continue; // mesh edge
            }
            const int target_in = out ^ 2;

            int owner = plane.out_owner[t][out];
            if (owner < 0) {
                // Arbitrate among inputs whose head word is a header
                // that dimension-ordered routing sends this way.
                for (int k = 0; k < 5 && owner < 0; k++) {
                    int in = (plane.rr[t][out] + k) % 5;
                    Fifo &src = plane.in_bufs[t][in];
                    if (!src.can_pop(now) ||
                        plane.in_remaining[t][in] > 0)
                        continue;
                    int dst = dyn_hdr_dst(src.front(now));
                    if (route_out(plane, t, dst) == out)
                        owner = in;
                }
                if (owner < 0)
                    continue;
                // Claim the output for this worm.
                uint32_t h = plane.in_bufs[t][owner].front(now);
                if (out != kLocal &&
                    !plane.in_bufs[nb][target_in].can_push(now)) {
                    // Downstream backpressure: the header word sits
                    // in this tile's buffer for another cycle.
                    stats_.profile.tiles[t].dyn_net_blocked++;
                    plane_blocked_.push_back(t);
                    continue; // try again next cycle
                }
                plane.pop(t, owner, now);
                plane.out_owner[t][out] = owner;
                plane.out_remaining[t][out] = dyn_hdr_len(h);
                plane.in_remaining[t][owner] = dyn_hdr_len(h);
                plane.rr[t][out] = (owner + 1) % 5;
                if (out == kLocal) {
                    plane.resident--;
                    plane.eject[t].push_back(h);
                } else {
                    plane.push(nb, target_in, now, h);
                }
                if (plane.out_remaining[t][out] == 0) {
                    plane.out_owner[t][out] = -1;
                    if (out == kLocal) {
                        deliver_dyn(t, plane.eject[t], now);
                        plane.eject[t].clear();
                    }
                }
                progress_ = true;
                continue;
            }

            // Continue an owned worm: move one payload word.
            if (!plane.in_bufs[t][owner].can_pop(now))
                continue;
            if (out != kLocal &&
                !plane.in_bufs[nb][target_in].can_push(now)) {
                stats_.profile.tiles[t].dyn_net_blocked++;
                plane_blocked_.push_back(t);
                continue;
            }
            uint32_t w = plane.pop(t, owner, now);
            plane.in_remaining[t][owner]--;
            plane.out_remaining[t][out]--;
            if (out == kLocal) {
                plane.resident--;
                plane.eject[t].push_back(w);
            } else {
                plane.push(nb, target_in, now, w);
            }
            if (plane.out_remaining[t][out] == 0) {
                plane.out_owner[t][out] = -1;
                if (out == kLocal) {
                    deliver_dyn(t, plane.eject[t], now);
                    plane.eject[t].clear();
                }
            }
            progress_ = true;
        }
    }
    if (checker_)
        checker_->audit_plane(plane, now);
}

void
Simulator::deliver_dyn(int tile, const std::vector<uint32_t> &msg,
                       int64_t now)
{
    DynKind kind = dyn_hdr_kind(msg[0]);
    if (kind == DynKind::kLoadReq || kind == DynKind::kStoreReq) {
        DynState &q = dyn_[tile];
        // Dyn-delay channel: a delayed request matures later; the
        // handler gate below honors the arrival time.
        q.inbox.push_back({now + dyn_delay_extra(), msg});
        wake_dyn(tile);
        TileProfile &tp = stats_.profile.tiles[tile];
        tp.dyn_max_queue =
            std::max(tp.dyn_max_queue,
                     static_cast<int64_t>(q.inbox.size()));
        return;
    }
    // Reply / ack for this tile's (single) outstanding request.
    DynState &d = dyn_[tile];
    check(!d.reply_ready, "dynamic network: reply overrun");
    d.reply_ready = true;
    d.reply_time = now + 1 + dyn_delay_extra();
    d.reply_value =
        kind == DynKind::kLoadReply && msg.size() > 1 ? msg[1] : 0;
}

/**
 * Remote-memory handler: drain the reply being injected, then service
 * the next assembled request.
 */
void
Simulator::step_dyn(int tile, int64_t now)
{
    DynState &d = dyn_[tile];

    // Inject one pending reply word per cycle.
    if (d.outbox_pos < d.outbox.size()) {
        if (reply_plane_.can_inject(tile, now)) {
            reply_plane_.inject(tile, now, d.outbox[d.outbox_pos++]);
            progress_ = true;
            if (d.outbox_pos == d.outbox.size()) {
                d.outbox.clear();
                d.outbox_pos = 0;
            }
        }
        return; // one reply at a time keeps ordering simple
    }

    if (d.inbox.empty() || d.handler_free > now ||
        d.inbox.front().arrival > now)
        return;

    const DynState::InMsg &im = d.inbox.front();
    const std::vector<uint32_t> &msg = im.words;
    DynKind kind = dyn_hdr_kind(msg[0]);
    int src = dyn_hdr_src(msg[0]);
    int64_t gaddr = bits_int(msg[1]);
    int64_t service =
        prog_.machine.dyn_handler_cycles + fault_extra();
    d.handler_free = now + service;
    TileProfile &tp = stats_.profile.tiles[tile];
    tp.dyn_requests_served++;
    tp.dyn_handler_busy += service;
    tp.dyn_queue_wait += now - im.arrival;

    if (kind == DynKind::kStoreReq) {
        mem_.write_local(tile, mem_.local_of(gaddr), msg[2]);
        d.outbox = {dyn_header(src, tile, 0, DynKind::kStoreAck)};
    } else {
        uint32_t v = mem_.read_local(tile, mem_.local_of(gaddr));
        d.outbox = {dyn_header(src, tile, 1, DynKind::kLoadReply),
                    v};
    }
    d.outbox_pos = 0;
    d.inbox.pop_front();
    progress_ = true;
}

} // namespace raw
