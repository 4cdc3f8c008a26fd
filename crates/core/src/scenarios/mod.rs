//! The experiment scenarios: one module per paper artifact.
//!
//! Each module is a pure `fn(&mut ReportBuilder)` that records tables,
//! metrics (with baseline tolerances), shape checks and chart artifacts.
//! `dmetabench suite --filter <id>` runs one of them, prints its tables
//! and writes its artifacts to `target/experiments/`.

use crate::suite::Scenario;

mod abl_attr_cache;
mod abl_nvram;
mod abl_wb_window;
mod exp_4_3_alloc;
mod exp_4_3_filecreation;
mod exp_4_3_largedir;
mod exp_4_4_priority;
mod exp_4_5_smp;
mod exp_4_6_latency;
mod exp_4_7_afs;
mod exp_4_7_ontapgx;
mod exp_4_8_writeback;
mod exp_crash_recovery;
mod exp_fault_afs_restart;
mod exp_fault_degrade;
mod exp_fault_failover;
mod exp_fig_3_4;
mod exp_fig_4_4;
mod exp_fig_4_5;
mod exp_fig_4_6;
mod exp_fig_4_7;
mod exp_lst_3_3;
mod exp_scrub_tax;
mod exp_tab_3_1;
mod exp_tab_4_2;
mod mds_shard_failover;
mod mds_shard_migration;
mod mds_shard_scaling;
mod mds_shard_skew;

const G_CH3: &str = "Chapter 3 artifacts (framework correctness)";
const G_DIST: &str = "Chapter 4 disturbance studies (Figs. 4.4–4.7)";
const G_43: &str = "§4.3 — NFS vs Lustre in a cluster";
const G_44: &str = "§4.4 — priority scheduling";
const G_45: &str = "§4.5 — intra-node SMP scalability";
const G_46: &str = "§4.6 — network latency";
const G_47: &str = "§4.7 — namespace aggregation";
const G_48: &str = "§4.8 — metadata write-back caching";
const G_ABL: &str = "Design-choice ablations (beyond the paper's figures)";
const G_FAULT: &str = "Fault injection & failure recovery (beyond the paper's healthy runs)";
const G_CRASH: &str = "Crash consistency & online integrity (beyond the paper's healthy runs)";
const G_SHARD: &str = "Sharded multi-MDS metadata service (beyond the paper's single-MDS testbeds)";

static REGISTRY: [Scenario; 29] = [
    Scenario {
        id: "exp_tab_3_1",
        title: "Table 3.1 — weak vs strong scaling sizes",
        group: G_CH3,
        paper_ref: "§3.2.3",
        paper: "n=6000: 2 procs → 12 000 iso-total / 3 000 strong-per-proc; 1000 procs → 6 000 000 / 6",
        verdict: "**exact match** (checked)",
        deterministic: true,
        cost_hint: 1,
        run: exp_tab_3_1::run,
    },
    Scenario {
        id: "exp_fig_3_4",
        title: "Fig. 3.4 — time-interval logging example",
        group: G_CH3,
        paper_ref: "§3.2.5",
        paper: "cumulative 19/45/70/85/90; wall-clock 18 ops/unit; stonewall 23.3",
        verdict: "**exact match** (checked)",
        deterministic: true,
        cost_hint: 1,
        run: exp_fig_3_4::run,
    },
    Scenario {
        id: "exp_lst_3_3",
        title: "Listings 3.3–3.5 — result pipeline",
        group: G_CH3,
        paper_ref: "§3.3.9",
        paper: "StatNocacheFiles, 2 nodes × 2 ppn, 4×5 000 ops; stonewall 22 191 ops/s on the production filer",
        verdict: "**format exact**; magnitude same order (paper arithmetic reproduced bit-exact in `preprocess.rs` unit tests)",
        deterministic: true,
        cost_hint: 10,
        run: exp_lst_3_3::run,
    },
    Scenario {
        id: "exp_tab_4_2",
        title: "Table 4.2 — harness overhead",
        group: G_CH3,
        paper_ref: "§4.2.2",
        paper: "Python 2.1 s vs C 0.62 s for 200 000 creates on /dev/shm (3.4×), constant per-op",
        verdict: "**shape holds** — fixed per-op overhead, vanishing against distributed FS latencies",
        deterministic: false,
        cost_hint: 20,
        run: exp_tab_4_2::run,
    },
    Scenario {
        id: "exp_fig_4_4",
        title: "Fig. 4.4 — CPU hog on one of 4 nodes, 16–22 s",
        group: G_DIST,
        paper_ref: "§4.2.3",
        paper: "throughput dips ≈5 500 → ≈4 000 ops/s; COV steps up for exactly the window",
        verdict: "**shape holds** (dip + clean COV step; checked)",
        deterministic: true,
        cost_hint: 40,
        run: exp_fig_4_4::run,
    },
    Scenario {
        id: "exp_fig_4_5",
        title: "Fig. 4.5 — filer snapshots from t≈9 s",
        group: G_DIST,
        paper_ref: "§4.2.3",
        paper: "COV rises \"in a much more random manner\"",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 20,
        run: exp_fig_4_5::run,
    },
    Scenario {
        id: "exp_fig_4_6",
        title: "Fig. 4.6 — 20 nodes saturate the filer; WAFL consistency points",
        group: G_DIST,
        paper_ref: "§4.2.3",
        paper: "sawtooth with ≈10 s period; a per-node hog is invisible in totals but visible in COV",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 120,
        run: exp_fig_4_6::run,
    },
    Scenario {
        id: "exp_fig_4_7",
        title: "Fig. 4.7 — two large sequential writes to the filer",
        group: G_DIST,
        paper_ref: "§4.2.3",
        paper: "global slowdown, \"very little difference between nodes\" (low COV)",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 60,
        run: exp_fig_4_7::run,
    },
    Scenario {
        id: "exp_4_3_filecreation",
        title: "§4.3.2 file creation scaling",
        group: G_43,
        paper_ref: "§4.3.2",
        paper: "NVRAM filer fast per client and saturating with enough clients; Lustre slower per op, per-node modify serialization (ppn doesn't help), scales with nodes to the MDS limit",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 400,
        run: exp_4_3_filecreation::run,
    },
    Scenario {
        id: "exp_4_3_largedir",
        title: "§4.3.3 large directories",
        group: G_43,
        paper_ref: "§4.3.3",
        paper: "directory structure determines create cost in big directories (§2.4.2: linear O(n) vs hash/B-tree)",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 200,
        run: exp_4_3_largedir::run,
    },
    Scenario {
        id: "exp_4_3_alloc",
        title: "§4.3.4 allocation probe (MakeFiles64byte/65byte)",
        group: G_43,
        paper_ref: "§4.3.4",
        paper: "64 B fits inline in the WAFL inode, 65 B forces block allocation — observable from the client",
        verdict: "**shape holds, boundary exact** (checked)",
        deterministic: true,
        cost_hint: 40,
        run: exp_4_3_alloc::run,
    },
    Scenario {
        id: "exp_4_4_priority",
        title: "§4.4 priority scheduling",
        group: G_44,
        paper_ref: "§4.4",
        paper: "CPU priorities matter for metadata throughput only when the client CPU is contended",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 20,
        run: exp_4_4_priority::run,
    },
    Scenario {
        id: "exp_4_5_smp",
        title: "§4.5.2–4.5.3 intra-node SMP scalability",
        group: G_45,
        paper_ref: "§4.5",
        paper: "on the 512-core HLRB 2, CXFS metadata barely scales with processes (client token serialization) while NFS does",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 20,
        run: exp_4_5_smp::run,
    },
    Scenario {
        id: "exp_4_6_latency",
        title: "§4.6 network latency sweep",
        group: G_46,
        paper_ref: "§4.6",
        paper: "synchronous metadata RPCs degrade with RTT; caching and parallelism are the mitigations (§5.2.1)",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 120,
        run: exp_4_6_latency::run,
    },
    Scenario {
        id: "exp_4_7_ontapgx",
        title: "§4.7.1–4.7.2 Ontap GX namespace aggregation",
        group: G_47,
        paper_ref: "§4.7.1–4.7.2",
        paper: "one volume bottlenecks on its owning D-blade; per-process path lists over all volumes scale; ~75 % efficiency for forwarded requests ([ECK+07])",
        verdict: "**shape holds, efficiency matches the cited figure** (checked 60–95 %)",
        deterministic: true,
        cost_hint: 200,
        run: exp_4_7_ontapgx::run,
    },
    Scenario {
        id: "exp_4_7_afs",
        title: "§4.7.3 AFS",
        group: G_47,
        paper_ref: "§4.7.3",
        paper: "cache-manager serialization makes intra-node flat; inter-node scales",
        verdict: "**shape holds** (checked)",
        deterministic: true,
        cost_hint: 60,
        run: exp_4_7_afs::run,
    },
    Scenario {
        id: "exp_4_8_writeback",
        title: "§4.8 metadata write-back caching",
        group: G_48,
        paper_ref: "§4.8",
        paper: "Lustre clients hold uncommitted operations until the MDS commits; time charts show burst-then-throttle",
        verdict: "**shape holds, plateau = commit rate** (checked)",
        deterministic: true,
        cost_hint: 20,
        run: exp_4_8_writeback::run,
    },
    Scenario {
        id: "abl_attr_cache",
        title: "Attribute-cache TTL",
        group: G_ABL,
        paper_ref: "§2.6.1/§5.2.1",
        paper: "caching pays until the TTL covers the re-access distance, then flattens",
        verdict: "**holds** (checked)",
        deterministic: true,
        cost_hint: 40,
        run: abl_attr_cache::run,
    },
    Scenario {
        id: "abl_nvram",
        title: "Server NVRAM",
        group: G_ABL,
        paper_ref: "§2.6.4",
        paper: "NVRAM is what makes synchronous NFS metadata fast (§2.6.4)",
        verdict: "**holds** (checked)",
        deterministic: true,
        cost_hint: 60,
        run: abl_nvram::run,
    },
    Scenario {
        id: "abl_wb_window",
        title: "Write-back window",
        group: G_ABL,
        paper_ref: "§4.8",
        paper: "the window buys burst length, never steady-state throughput (§4.8)",
        verdict: "**holds** (checked)",
        deterministic: true,
        cost_hint: 20,
        run: abl_wb_window::run,
    },
    Scenario {
        id: "exp_fault_failover",
        title: "Lustre MDS crash + standby failover",
        group: G_FAULT,
        paper_ref: "§4.1.2",
        paper: "the paper's Lustre testbeds pair the MDS with a failover standby; the healthy runs never exercise it",
        verdict: "**recovery shape holds** — service collapses for exactly the takeover window, standby restores it (checked)",
        deterministic: true,
        cost_hint: 60,
        run: exp_fault_failover::run,
    },
    Scenario {
        id: "exp_fault_degrade",
        title: "NFS on a degraded / lossy network",
        group: G_FAULT,
        paper_ref: "§4.6",
        paper: "synchronous RPCs track the link: ×F latency degradation must cost throughput monotonically; loss triggers soft-mount timeout/backoff",
        verdict: "**monotone + recovery shape holds** (checked)",
        deterministic: true,
        cost_hint: 120,
        run: exp_fault_degrade::run,
    },
    Scenario {
        id: "exp_fault_afs_restart",
        title: "AFS file-server restart → callback-break storm",
        group: G_FAULT,
        paper_ref: "§2.6.1/§4.7.3",
        paper: "AFS callbacks are server state; a restarted server has lost them all, so every client re-validates at once",
        verdict: "**storm + recovery shape holds** (checked)",
        deterministic: true,
        cost_hint: 40,
        run: exp_fault_afs_restart::run,
    },
    Scenario {
        id: "exp_crash_recovery",
        title: "Power-loss injection: journal recovery + fsck sweep",
        group: G_CRASH,
        paper_ref: "§2.6.3",
        paper: "the metadata servers the paper benchmarks all journal (ext3 ordered mode under the Lustre MDS, WAFL's NVRAM log); the runs never cut power mid-log",
        verdict: "**durability contract holds** — every crash schedule (clean / torn / reordered tail) recovers exactly the committed prefix, fsck clean, crash-twice included (checked)",
        deterministic: true,
        cost_hint: 10,
        run: exp_crash_recovery::run,
    },
    Scenario {
        id: "exp_scrub_tax",
        title: "Online integrity scrub: throughput tax sweep",
        group: G_CRASH,
        paper_ref: "§2.6.3",
        paper: "production filers background-scrub metadata while serving traffic; the paper's benchmarks run with scrubbing invisible in the noise",
        verdict: "**tax is monotone and bounded** — heavier sweeps cost proportionally more work units, zero integrity errors under live mutation (checked)",
        deterministic: true,
        cost_hint: 10,
        run: exp_scrub_tax::run,
    },
    Scenario {
        id: "mds_shard_scaling",
        title: "Shard-count scaling sweep (1/4/16/64 MDS shards)",
        group: G_SHARD,
        paper_ref: "§2.5/§4.7",
        paper: "the paper's metadata servers saturate alone (§4.3); §2.5/§4.7 point at namespace partitioning over several servers as the scaling path",
        verdict: "**scaling shape holds** — monotone 1→4→16 past the single-MDS ceiling, flat once shards outnumber writer directories (checked)",
        deterministic: true,
        cost_hint: 200,
        run: mds_shard_scaling::run,
    },
    Scenario {
        id: "mds_shard_skew",
        title: "Hot-directory skew + online subtree rebalancing",
        group: G_SHARD,
        paper_ref: "§2.4.2/§4.7",
        paper: "skewed traffic defeats hashing (one hot subtree = one hot shard); a VLDB-style subtree split relieves it without stopping traffic",
        verdict: "**rebalancing shape holds** — post-split throughput a multiple of the hot shard's, forwarding paid once per node per move (checked)",
        deterministic: true,
        cost_hint: 120,
        run: mds_shard_skew::run,
    },
    Scenario {
        id: "mds_shard_migration",
        title: "Lazy-migration conservation audit",
        group: G_SHARD,
        paper_ref: "§2.5/§4.7.3",
        paper: "AFS volume moves (§4.7.3) keep the namespace consistent mid-migration; every lookup must resolve to exactly one authority",
        verdict: "**conservation holds** — lookups == ops issued == ops completed across a split/migrate/merge schedule, zero errors (checked)",
        deterministic: true,
        cost_hint: 20,
        run: mds_shard_migration::run,
    },
    Scenario {
        id: "mds_shard_failover",
        title: "Shard crash → ring-successor failover",
        group: G_SHARD,
        paper_ref: "§4.1.2",
        paper: "the paper's single-MDS failover collapses service for the takeover window; a sharded service should only degrade by the crashed shard's share",
        verdict: "**degrade-not-collapse shape holds** — outage costs throughput but keeps the majority serving, restart heals (checked)",
        deterministic: true,
        cost_hint: 120,
        run: mds_shard_failover::run,
    },
];

/// The full scenario registry, in EXPERIMENTS.md display order.
pub fn registry() -> &'static [Scenario] {
    &REGISTRY
}
