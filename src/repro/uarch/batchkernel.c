/* Compiled per-lane kernel for the batched lockstep engine.
 *
 * This is the batch engine's cycle loop: OoOCore.run transliterated
 * for the specs repro.snapshot.batch.batch_eligible admits (AGE, FFS or
 * CDS select, selective replay, no store sets, no telemetry, static TEP
 * gate).  It operates IN PLACE on
 * repro.uarch.batchcore.BatchEngine's structure-of-arrays numpy state:
 * python builds the plan, tapes and (N,)-shaped state arrays, hands
 * their pointers here, and BatchEngine._export fills each finished
 * lane's SimStats from the same arrays, which
 * repro.harness.runner.measured_result packages like any scalar run.
 * Every lane starts from a cold core.  The lanes of a batch share one
 * instruction stream (the plan); each carries its own scheme's mode
 * (tep_probe, uses_vte, uses_ep_stall, tolerates, sel_mode,
 * crit_threshold) and cycle budget as lane scalars.  An engine serves
 * one warmup key in two calls: the first runs its one warmup lane to
 * the warmup boundary, the second runs the window on every lane forked
 * from it (repro.snapshot.batch runs one engine per warmup key).
 * Facts about op classes (latency, unit kind, unpipelined units) come
 * from the plan, so this file holds no op-class number.  Bit-identity
 * against the scalar core is asserted by
 * tests/snapshot/test_batch_equivalence.py.
 *
 * Lanes are advanced independently (the virtual-time/burn excision
 * makes each lane's trajectory self-contained); an evicted lane stops
 * immediately and is re-run by the caller on the scalar path.
 *
 * Every argument is declared once, in the ARRAYS and PARAMS tables of
 * repro.uarch.batchkernel, from which batchkernel_abi.h is generated
 * when the kernel is compiled.  The header lists the arguments by role
 * (plan arrays, per-lane rows, per-lane scalars, params) as X-macros;
 * the context struct, the argument binding and the per-lane load/store
 * below all expand from those lists.  The header also defines every
 * code Python shares with this file (EV_*, FRZ_*, SEL_*, TS_MASK, the
 * K_* limits), so none is written here by hand.
 */

#include <stdint.h>
#include <string.h>

#include "batchkernel_abi.h"

#define K_RMASK (K_RING - 1)

/* One lane's view: plan arrays and params shared by every lane, its own
 * rows, and its scalars (mode, budget, counters, cursors and outputs)
 * by value. */
#define PLAN_FIELD(name, type) const type *name;
#define ROW_FIELD(name, type, stride) type *name;
#define SCALAR_FIELD(name, type) type name;
#define PARAM_FIELD(name) int64_t name;
typedef struct {
    K_PLAN_ARRAYS(PLAN_FIELD)
    K_LANE_ROWS(ROW_FIELD, _)
    K_LANE_SCALARS(SCALAR_FIELD)
    K_PARAMS(PARAM_FIELD)
} Ctx;

/* ---- cache model: LRU list semantics on flat tag arrays ------------- */

/* The tag type is batchkernel.TAG_DTYPE; build_plan falls back unless
 * every tag the window can probe fits it, so storing one narrows
 * nothing. */
typedef arr_t_l2_tags tag_t;

static int64_t cache_probe(tag_t *tags, int64_t *cntp, int64_t assoc,
                           int64_t tag) {
    /* returns 1 on hit (with MRU update), 0 on miss (with fill) */
    int64_t cnt = *cntp;
    for (int64_t i = 0; i < cnt; i++) {
        if (tags[i] == tag) {
            if (i != cnt - 1) {
                memmove(tags + i, tags + i + 1,
                        (size_t)(cnt - 1 - i) * sizeof(tag_t));
                tags[cnt - 1] = (tag_t)tag;
            }
            return 1;
        }
    }
    if (cnt >= assoc) {
        memmove(tags, tags + 1, (size_t)(cnt - 1) * sizeof(tag_t));
        cnt--;
    }
    tags[cnt] = (tag_t)tag;
    *cntp = cnt + 1;
    return 0;
}

static int64_t access_l2(Ctx *c, int64_t addr) {
    int64_t tag = addr >> c->l2_shift;
    int64_t si = tag & c->l2_mask;
    if (cache_probe(c->l2_tags + si * c->l2_assoc, c->l2_cnt + si,
                    c->l2_assoc, tag)) {
        c->l2_hits++;
        return c->lat_l2;
    }
    c->l2_misses++;
    c->mem_accesses++;
    return c->lat_mem;
}

static int64_t access_data(Ctx *c, int64_t addr) {
    int64_t tag = addr >> c->l1d_shift;
    int64_t si = tag & c->l1d_mask;
    if (cache_probe(c->l1d_tags + si * c->l1d_assoc, c->l1d_cnt + si,
                    c->l1d_assoc, tag)) {
        c->l1d_hits++;
        return c->lat_l1;
    }
    c->l1d_misses++;
    return access_l2(c, addr);
}

/* ---- TEP commit-time training --------------------------------------- */

static void train_tep(Ctx *c, int64_t slot, int64_t fmask, int64_t pr) {
    int64_t ti = c->tepi[slot];
    int64_t tg = c->tept[slot];
    if (fmask) {
        int64_t stage = 0;
        while (!(fmask & (1 << stage)))
            stage++;
        if (c->tep_tag[ti] == tg) {
            if (c->tep_cnt[ti] < c->tep_cmax)
                c->tep_cnt[ti]++;
            c->tep_stage[ti] = stage;
        } else {
            c->tep_tag[ti] = tg;
            c->tep_cnt[ti] = 1;
            c->tep_stage[ti] = stage;
            c->tep_crit[ti] = 0;
        }
    } else if (pr >= 0) {
        c->false_predictions++;
        if (c->tep_tag[ti] == tg && c->tep_cnt[ti] > 0)
            c->tep_cnt[ti]--;
    }
}

/* ---- issue-time helpers --------------------------------------------- */

static void count_fault(Ctx *c, int64_t stage, int predicted) {
    c->faults_total++;
    c->stage_faults[stage]++;
    if (predicted)
        c->faults_predicted++;
    else
        c->faults_unpredicted++;
}

static int64_t stage_cycle(int64_t stage, int64_t v, int64_t agen_end,
                           int64_t exec_end, int64_t wb_c, int is_mem) {
    /* returns -1 for "no stall point" (pipeline._stage_cycle -> None) */
    if (stage == 4)
        return v;
    if (stage == 5)
        return v + 1;
    if (stage == 6)
        return exec_end;
    if (stage == 7)
        return is_mem ? agen_end : -1;
    if (stage == 8)
        return wb_c;
    return -1;
}

static int64_t load_data_lat(Ctx *c, int64_t slot, int64_t cam_real) {
    int64_t lo = c->SM[c->cp];
    int64_t hi = c->SM[slot];
    if (hi > lo) {
        int64_t a8 = c->addr8[slot];
        for (int64_t r = lo; r < hi; r++) {
            if (c->st_addr8[r] == a8 && c->store_resolve[r] <= cam_real) {
                c->store_forwards++;
                return 1;
            }
        }
    }
    return access_data(c, c->mem_addr[slot]);
}

/* issue one selected instruction; returns 0 on eviction */
static int issue_one(Ctx *c, int64_t v, int64_t slot, int64_t jj,
                     int64_t ucol, int64_t iq_len0) {
    int64_t o = c->op[slot];
    c->issued++;
    c->regreads += c->nsrcs[slot];
    /* first-issue rank: the scalar core keys fu_ops in this order */
    if (!c->fu_op_counts[o]++)
        c->fu_first[o] = c->issued;
    int64_t pr = c->pred[slot];
    int64_t rr_e = 0, ex_e = 0, mem_e = 0, wb_e = 0;
    int frz = FRZ_NONE;
    if (c->uses_vte) {
        int64_t pi = (pr + 1) * 8 + o;
        rr_e = c->T_RR[pi];
        ex_e = c->T_EX[pi];
        mem_e = c->T_MEM[pi];
        wb_e = c->T_WB[pi];
        frz = c->T_FRZ[pi];
        c->padded_instructions += c->T_HAS[pi];
    }
    int64_t f = c->tape[slot];
    int64_t bubble_stage[5];
    int nb = 0;
    if (f) {
        int im = c->is_mem[slot];
        int64_t pen = c->replay_recovery;
        for (int64_t stage = 4; stage <= 8; stage++) {
            if (!(f & (1 << stage)))
                continue;
            if (stage == 7 && !im) {
                count_fault(c, stage, 0);
                c->evict_code = EV_WILD_MEM;
                return 0;
            }
            int tol = (stage == pr) && c->tolerates;
            if (tol && c->uses_vte && !c->T_HAS[(pr + 1) * 8 + o]) {
                c->evict_code = EV_UNPADDED;
                return 0;
            }
            count_fault(c, stage, tol);
            if (tol)
                continue;
            c->replays++;
            if (stage <= 5)
                rr_e += pen;
            else if (stage == 6)
                ex_e += pen;
            else if (stage == 7)
                mem_e += pen;
            else
                wb_e += pen;
            bubble_stage[nb++] = stage;
        }
    }
    int64_t exec_lat = c->lat[slot] + ex_e;
    int64_t agen_end = v + 2 + rr_e;
    int64_t exec_end = v + 1 + rr_e + exec_lat;
    int64_t wakeup, wbreq;
    int im = c->is_mem[slot];
    if (!im) {
        wakeup = v + c->lat[slot] + rr_e + ex_e;
        wbreq = v + 2 + rr_e + exec_lat;
    } else if (c->is_load[slot]) {
        c->lsq_searches++;
        /* the CAM compares store resolve times, which the scalar core
         * keeps in unshifted REAL cycles -- probe in real time */
        int64_t dlat = load_data_lat(c, slot, agen_end + c->burned);
        wakeup = agen_end + mem_e + dlat;
        wbreq = wakeup + 1;
    } else { /* store: resolve in REAL cycles, WB request stays virtual */
        c->lsq_searches++;
        int64_t r = c->srank[slot];
        c->store_resolve[r] = agen_end + c->burned;
        int64_t fr = c->frontier, pm = c->pm_run;
        while (fr < c->n_stores && c->store_resolve[fr] < K_INF) {
            if (c->store_resolve[fr] > pm)
                pm = c->store_resolve[fr];
            c->premax[fr] = pm;
            fr++;
        }
        c->frontier = fr;
        c->pm_run = pm;
        wakeup = K_INF;
        wbreq = agen_end + mem_e + 1;
    }
    /* writeback arbitration: first cycle with a free port */
    int64_t cc = wbreq;
    while (c->wbring[cc & K_RMASK] >= c->width)
        cc++;
    c->wbring[cc & K_RMASK]++;
    if (wb_e)
        c->wbring[(cc + 1) & K_RMASK]++;
    c->cec[slot] = cc + wb_e;
    /* result broadcast (set_ready): consumers read next cycle */
    if (c->has_dest[slot] && !c->is_store[slot]) {
        c->wake[slot] = wakeup;
        c->broadcasts++;
        c->broadcast_occupancy += iq_len0 - (jj + 1);
        /* CDS: count the waiting dependents (IssueQueue.count_dependents).
         * This cycle's earlier issues are still listed, but none can
         * match: each was ready while this slot's wake was K_INF. */
        if (c->crit_threshold) {
            int64_t deps = 0;
            for (int64_t pos = 0; pos < iq_len0; pos++) {
                int64_t s = c->iq_slot[pos];
                deps += c->ws0[s] == slot || c->ws1[s] == slot;
            }
            int64_t ti = c->tepi[slot];
            if (deps >= c->crit_threshold &&
                c->tep_tag[ti] == c->tept[slot]) {
                c->tep_crit[ti] = 1;
                c->critical_marks_landed++;
            }
        }
    }
    /* functional-unit reservation + VTE freezing */
    int64_t ni = v + (c->op_unpipelined[o] ? exec_lat : 1);
    if (c->uses_vte) {
        if (frz != FRZ_NONE)
            c->slot_freezes++;
        if (frz == FRZ_SLOT_ONE_CYCLE) {
            if (ni < v + 2)
                ni = v + 2;
        } else if (frz == FRZ_UNTIL_COMPLETE) {
            if (ni < exec_end)
                ni = exec_end;
        } else if (frz == FRZ_BUSY_PLUS_ONE) {
            ni++;
        }
    }
    c->fu_ni[ucol] = ni;
    if (c->cond_mispred[slot])
        c->blk_resolve_v = exec_end;
    if (c->uses_ep_stall && pr >= 0) {
        int64_t sc = stage_cycle(pr, v, agen_end, exec_end, cc, im);
        if (sc >= 0) {
            c->padded_instructions++;
            int64_t at = sc > v + 1 ? sc : v + 1;
            c->epring[at & K_RMASK]++;
        }
    }
    for (int b = 0; b < nb; b++) {
        int64_t sc =
            stage_cycle(bubble_stage[b], v, agen_end, exec_end, cc, im);
        if (sc >= 0) {
            int64_t at = sc > v + 1 ? sc : v + 1;
            c->epring[at & K_RMASK] += (int32_t)c->recovery_bubbles;
        }
    }
    return 1;
}

/* ---- one cycle's stages --------------------------------------------- */

static void commit_cycle(Ctx *c, int64_t v) {
    for (int64_t w = 0; w < c->width; w++) {
        if (c->cp >= c->dp)
            return;
        int64_t s = c->cp;
        if (c->cec[s] > v)
            return;
        c->committed++;
        int64_t hd = c->has_dest[s];
        c->regwrites += hd;
        c->free_cnt += hd;
        c->lsq_occ -= c->is_mem[s];
        c->last_commit_real = v + c->burned;
        if (c->is_store[s])
            access_data(c, c->mem_addr[s]);
        if (c->tep_probe) {
            int64_t f = c->tape[s];
            int64_t pr = c->pred[s];
            if (f || pr >= 0)
                train_tep(c, s, f, pr);
        }
        c->cp++;
    }
}

/* returns 0 on eviction */
static int select_issue_cycle(Ctx *c, int64_t v) {
    int64_t n = c->iq_len;
    if (!n)
        return 1;
    int64_t ready_pos[K_MAX_IQ], ready_key[K_MAX_IQ];
    int nr = 0;
    int64_t head_ts = c->ts[c->iq_slot[0]];
    int64_t real = v + c->burned;
    for (int64_t pos = 0; pos < n; pos++) {
        int64_t slot = c->iq_slot[pos];
        int64_t w0 = c->wake[c->ws0[slot]];
        int64_t w1 = c->wake[c->ws1[slot]];
        if ((w0 > w1 ? w0 : w1) > v)
            continue;
        if (c->is_load[slot] && c->n_stores) {
            int64_t oc = c->SM[slot];
            if (oc) {
                /* premax holds REAL resolve cycles (scalar's LSQ is
                 * never shifted by EP stalls) -- gate in real time */
                if (c->frontier < oc || c->premax[oc - 1] > real)
                    continue;
            }
        }
        int64_t key = ((c->ts[slot] - head_ts) & TS_MASK) * c->iq_size + pos;
        int64_t pr = c->pred[slot];
        if ((c->sel_mode == SEL_FFS && pr < 0) ||
            (c->sel_mode == SEL_CDS && !(pr >= 0 && c->pcrit[slot])))
            key += (TS_MASK + 1) * c->iq_size;
        /* insertion into key-sorted order (keys are unique) */
        int i = nr++;
        while (i > 0 && ready_key[i - 1] > key) {
            ready_key[i] = ready_key[i - 1];
            ready_pos[i] = ready_pos[i - 1];
            i--;
        }
        ready_key[i] = key;
        ready_pos[i] = pos;
    }
    if (!nr)
        return 1;
    int64_t cap_s = (c->fu_ni[0] <= v) + (c->fu_ni[1] <= v);
    int64_t cap_c = c->fu_ni[2] <= v;
    int64_t cap_m = c->fu_ni[3] <= v;
    int c0 = c->fu_ni[0] <= v;
    int64_t cum_s = 0, cum_c = 0, cum_m = 0;
    int64_t sel_pos[K_MAX_WIDTH], sel_ucol[K_MAX_WIDTH];
    int nsel = 0;
    for (int i = 0; i < nr && nsel < c->width; i++) {
        int64_t slot = c->iq_slot[ready_pos[i]];
        int64_t kind = c->fu[slot];
        int64_t ucol;
        if (kind == 0) {
            cum_s++;
            if (cum_s > cap_s)
                continue;
            ucol = cum_s - 1 + (c0 ? 0 : 1);
        } else if (kind == 1) {
            cum_c++;
            if (cum_c > cap_c)
                continue;
            ucol = 2;
        } else {
            cum_m++;
            if (cum_m > cap_m)
                continue;
            ucol = 3;
        }
        sel_pos[nsel] = ready_pos[i];
        sel_ucol[nsel] = ucol;
        nsel++;
    }
    if (!nsel)
        return 1;
    int64_t iq_len0 = n;
    for (int j = 0; j < nsel; j++) {
        if (!issue_one(c, v, c->iq_slot[sel_pos[j]], j, sel_ucol[j],
                       iq_len0))
            return 0;
    }
    /* compact the IQ, preserving age order (sel_pos ascends in j only
     * per FU class; sort removals by position first) */
    int64_t rm[K_MAX_WIDTH];
    for (int j = 0; j < nsel; j++)
        rm[j] = sel_pos[j];
    for (int a = 1; a < nsel; a++) {
        int64_t x = rm[a];
        int b = a;
        while (b > 0 && rm[b - 1] > x) {
            rm[b] = rm[b - 1];
            b--;
        }
        rm[b] = x;
    }
    int64_t out = rm[0];
    int next = 1;
    for (int64_t pos = rm[0] + 1; pos < n; pos++) {
        if (next < nsel && pos == rm[next]) {
            next++;
            continue;
        }
        c->iq_slot[out++] = c->iq_slot[pos];
    }
    c->iq_len = n - nsel;
    return 1;
}

static void dispatch_cycle(Ctx *c) {
    int64_t d = c->depth - 1;
    int64_t cnt = c->conv_len[d];
    if (!cnt)
        return;
    int64_t s = c->conv_start[d];
    int64_t k = 0;
    for (int64_t i = 0; i < cnt; i++) {
        int64_t si = s + i;
        if (c->dp - c->cp + i >= c->rob_size)
            break;
        if (c->iq_len + i >= c->iq_size)
            break;
        if (c->is_mem[si] &&
            c->lsq_occ + (c->M[si] - c->M[s]) >= c->lsq_size)
            break;
        if (c->has_dest[si] &&
            c->free_cnt - (c->HD[si] - c->HD[s]) < 1)
            break;
        k++;
    }
    if (!k)
        return;
    for (int64_t i = 0; i < k; i++)
        c->iq_slot[c->iq_len + i] = s + i;
    c->dp += k;
    c->lsq_occ += c->M[s + k] - c->M[s];
    c->free_cnt -= c->HD[s + k] - c->HD[s];
    c->dispatched += k;
    c->iq_len += k;
    c->conv_start[d] += k;
    c->conv_len[d] -= k;
}

/* returns 0 on eviction */
static int fetch_cycle(Ctx *c, int64_t v) {
    if (c->conv_len[0] || c->blk_active || c->resume_v > v)
        return 1;
    int64_t g = c->g_ptr;
    if (g >= c->NG) {
        c->evict_code = EV_STREAM_END;
        return 0;
    }
    int64_t gs = c->g_start[g];
    int64_t gl = c->g_len[g];
    c->conv_start[0] = gs;
    c->conv_len[0] = gl;
    c->fetched += gl;
    c->branches += c->g_branches[g];
    if (c->g_mispred[g]) {
        c->branch_mispredicts++;
        c->blk_active = 1;
        c->blk_fetch_abs = v + c->burned;
    }
    if (c->tep_probe) {
        for (int64_t j = 0; j < gl; j++) {
            int64_t sl = gs + j;
            int64_t ti = c->tepi[sl];
            if (c->tep_tag[ti] == c->tept[sl] && c->tep_cnt[ti] > 0) {
                c->pred[sl] = (int8_t)c->tep_stage[ti];
                c->pcrit[sl] = c->tep_crit[ti];
            } else {
                c->pred[sl] = -1;
                c->pcrit[sl] = 0;
            }
        }
    }
    if (c->g_has_miss[g]) {
        int64_t stall = 0;
        for (int64_t m = c->g_miss_off[g]; m < c->g_miss_off[g + 1]; m++) {
            int64_t lat2 = access_l2(c, c->miss_pcs[m]) - 1;
            if (lat2 > stall)
                stall = lat2;
        }
        if (stall && v + 1 + stall > c->resume_v)
            c->resume_v = v + 1 + stall;
    }
    c->g_ptr++;
    return 1;
}

/* ---- per-lane virtual-time loop ------------------------------------- */

/* A lane resumes at the virtual cycle its last call stopped at (0 on a
 * fresh lane), so a warmup call and the window call after it run one
 * trajectory.  Kept out of line: inlined into the per-lane load/store
 * loop of repro_batch_run it made every kernel build about a third
 * slower, and the kernel no faster. */
__attribute__((noinline)) static void lane_run(Ctx *c) {
    int64_t v = c->v_end;
    for (;;) {
        if (c->committed >= c->target) {
            c->v_end = v;
            return;
        }
        if (c->force_at >= 0 && v >= c->force_at) {
            c->evict_code = EV_FORCED;
            return;
        }
        if (!(v & 255)) {
            int64_t real = v + c->burned;
            if (real > c->max_cycles ||
                real - c->last_commit_real >= c->hang_cycles) {
                c->evict_code = EV_WATCHDOG;
                return;
            }
        }
        int64_t vm = v & K_RMASK;
        /* whole-pipeline stalls burn in bulk (virtual-time excision) */
        int64_t k = c->epring[vm];
        if (k) {
            c->burned += k;
            c->ep_stalls += k;
            c->epring[vm] = 0;
        }
        if (c->blk_resolve_v == v) {
            c->blk_active = 0;
            c->blk_resolve_v = K_INF;
            int64_t res = v + c->redirect_penalty;
            if (res > c->resume_v)
                c->resume_v = res;
            if (c->model_wrong_path) {
                int64_t wasted = (v + c->burned) - c->blk_fetch_abs - 1;
                if (wasted > 0)
                    c->wrong_path_fetched += wasted * c->width;
            }
        }
        commit_cycle(c, v);
        if (!select_issue_cycle(c, v))
            return;
        dispatch_cycle(c);
        for (int64_t i = c->depth - 1; i > 0; i--) {
            if (!c->conv_len[i]) {
                c->conv_len[i] = c->conv_len[i - 1];
                c->conv_start[i] = c->conv_start[i - 1];
                c->conv_len[i - 1] = 0;
            }
        }
        if (!fetch_cycle(c, v))
            return;
        c->iq_occupancy_accum += c->iq_len;
        c->wbring[vm] = 0;
        v++;
    }
}

/* ---- entry point ----------------------------------------------------- */

void repro_batch_run(void **A, const int64_t *p) {
#define BIND_PLAN(name, type) base.name = ARR(A, name);
#define BIND_PARAM(name) base.name = PRM(p, name);
#define LOAD_ROW(name, type, stride) c.name = ARR(A, name) + lane * (stride);
#define LOAD_SCALAR(name, type) c.name = ARR(A, name)[lane];
#define STORE_SCALAR(name, type) ARR(A, name)[lane] = c.name;
    Ctx base;
    memset(&base, 0, sizeof(base));
    K_PLAN_ARRAYS(BIND_PLAN)
    K_PARAMS(BIND_PARAM)
    for (int64_t lane = 0; lane < base.N; lane++) {
        if (!ARR(A, active)[lane])
            continue;
        Ctx c = base;
        K_LANE_ROWS(LOAD_ROW, base)
        K_LANE_SCALARS(LOAD_SCALAR)
        lane_run(&c);
        if (c.evict_code)
            c.active = 0;
        K_LANE_SCALARS(STORE_SCALAR)
    }
}
