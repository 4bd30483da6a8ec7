//! The RTOSUnit hardware model (paper §4).
//!
//! The unit attaches to a core through the
//! [`Coprocessor`] trait. Its behaviour per
//! cycle:
//!
//! * the **store FSM** drains the frozen application register bank to the
//!   task's fixed context chunk, one word per *idle* data-port cycle
//!   (processor priority, §4.2 (2)); with dirty bits (§4.5) only modified
//!   registers are written;
//! * the **restore FSM** loads the next context once the store finished,
//!   stalling `mret` until done (§4.3);
//! * the **preloader** (§4.7) speculatively fills a 31-word buffer with
//!   the context of the ready-list head outside ISRs; on a correct
//!   prediction the restore happens in lockstep with the store — each
//!   saved register is immediately overwritten with its preloaded value —
//!   so loading costs no extra memory cycles;
//! * the **hardware scheduler** (§4.4) executes `ADD_READY`/`ADD_DELAY`/
//!   `RM_TASK`/`GET_HW_SCHED` and reacts to timer interrupts.

use crate::config::RtosUnitConfig;
use crate::layout::{ctx_reg, ctx_word_addr, CTX_MEPC_IDX, CTX_MSTATUS_IDX, CTX_WORDS};
use crate::scheduler::HwScheduler;
use rvsim_cores::{ArchState, Bank, Coprocessor, DataBus};
use rvsim_isa::{csr, CustomOp};
use rvsim_snapshot::{self as snap, Json, SnapError};

/// Activity counters used by the tests and the power model.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct UnitStats {
    /// Interrupt entries observed.
    pub interrupts: u64,
    /// Context words written by the store FSM.
    pub store_words: u64,
    /// Context words read by the restore FSM.
    pub load_words: u64,
    /// Context words speculatively preloaded.
    pub preload_words: u64,
    /// Switches where the preloaded context matched the scheduled task.
    pub preload_hits: u64,
    /// Switches where the preload was wrong (or incomplete).
    pub preload_misses: u64,
    /// Context loads skipped because next == previous (§4.6).
    pub omitted_loads: u64,
    /// Custom instructions executed.
    pub custom_instrs: u64,
    /// Cycles the store FSM waited for the port.
    pub store_stall_cycles: u64,
    /// Cycles the restore FSM waited for the port.
    pub load_stall_cycles: u64,
    /// Hardware semaphore takes that succeeded immediately (extension).
    pub sem_takes: u64,
    /// Hardware semaphore takes that blocked the caller (extension).
    pub sem_blocks: u64,
    /// Hardware semaphore gives (extension).
    pub sem_gives: u64,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum RestoreMode {
    /// No restore required (no (L), or nothing scheduled yet).
    None,
    /// Normal restore from the context region, after the store completes.
    Memory,
    /// Preload hit: swap preloaded values in lockstep with the store.
    Lockstep,
    /// Load omission (§4.6): next task == previous task.
    Omitted,
}

/// One hardware semaphore of the §7-extension synchronisation unit:
/// a counter plus a priority-ordered wait list (FIFO within a priority —
/// `Vec` order is insertion order and the scan picks the first maximum).
#[derive(Debug, Clone, Default)]
struct HwSemaphore {
    count: u32,
    waiters: Vec<(u8, u8)>, // (task id, priority), insertion-ordered
}

impl HwSemaphore {
    fn pop_waiter(&mut self) -> Option<(u8, u8)> {
        let best = self
            .waiters
            .iter()
            .enumerate()
            .max_by(|(ia, a), (ib, b)| a.1.cmp(&b.1).then(ib.cmp(ia)))?
            .0;
        Some(self.waiters.remove(best))
    }
}

impl UnitStats {
    /// `(name, counter)` pairs in a stable order (the snapshot layout).
    fn fields_mut(&mut self) -> [(&'static str, &mut u64); 13] {
        [
            ("interrupts", &mut self.interrupts),
            ("store_words", &mut self.store_words),
            ("load_words", &mut self.load_words),
            ("preload_words", &mut self.preload_words),
            ("preload_hits", &mut self.preload_hits),
            ("preload_misses", &mut self.preload_misses),
            ("omitted_loads", &mut self.omitted_loads),
            ("custom_instrs", &mut self.custom_instrs),
            ("store_stall_cycles", &mut self.store_stall_cycles),
            ("load_stall_cycles", &mut self.load_stall_cycles),
            ("sem_takes", &mut self.sem_takes),
            ("sem_blocks", &mut self.sem_blocks),
            ("sem_gives", &mut self.sem_gives),
        ]
    }
}

/// The RTOSUnit. See the [module docs](self).
#[derive(Debug, Clone)]
pub struct RtosUnit {
    cfg: RtosUnitConfig,
    sched: Option<HwScheduler>,
    sems: Vec<HwSemaphore>,
    current_id: u8,
    pending_next: Option<u8>,
    in_isr: bool,

    store_active: bool,
    /// All words issued, waiting for the bus/ctxQueue to drain (§5.3:
    /// "SWITCH_RF waits for all pending stores in the ctxQueue").
    store_draining: bool,
    store_word: usize,
    store_mask: u32,

    restore_mode: RestoreMode,
    restore_pending: bool,
    restore_active: bool,
    restore_draining: bool,
    restore_word: usize,
    restore_id: u8,

    preload_buf: [u32; CTX_WORDS],
    preload_id: Option<u8>,
    preload_word: usize,

    /// Activity counters.
    pub stats: UnitStats,
}

impl RtosUnit {
    /// Creates a unit for a validated configuration.
    ///
    /// # Panics
    ///
    /// Panics if `cfg` violates the dependency rules of §4
    /// (use [`RtosUnitConfig::validate`] to check first).
    pub fn new(cfg: RtosUnitConfig) -> RtosUnit {
        cfg.validate().expect("invalid RTOSUnit configuration");
        RtosUnit {
            sched: cfg.sched.then(|| HwScheduler::new(cfg.list_len)),
            sems: if cfg.hw_sync {
                vec![HwSemaphore::default(); 8]
            } else {
                Vec::new()
            },
            cfg,
            current_id: 0,
            pending_next: None,
            in_isr: false,
            store_active: false,
            store_draining: false,
            store_word: 0,
            store_mask: 0,
            restore_mode: RestoreMode::None,
            restore_pending: false,
            restore_active: false,
            restore_draining: false,
            restore_word: 0,
            restore_id: 0,
            preload_buf: [0; CTX_WORDS],
            preload_id: None,
            preload_word: 0,
            stats: UnitStats::default(),
        }
    }

    /// The configuration this unit was built with.
    pub fn config(&self) -> &RtosUnitConfig {
        &self.cfg
    }

    /// The task id whose context currently occupies the application bank.
    pub fn current_task(&self) -> u8 {
        self.current_id
    }

    /// Hardware scheduler, when (T) is enabled.
    pub fn scheduler(&self) -> Option<&HwScheduler> {
        self.sched.as_ref()
    }

    /// Whether the store FSM is still storing or draining a context.
    pub fn store_busy(&self) -> bool {
        self.store_active || self.store_draining
    }

    /// Whether a context restore is pending or in flight.
    pub fn restore_busy(&self) -> bool {
        match self.restore_mode {
            RestoreMode::Memory => {
                self.restore_pending || self.restore_active || self.restore_draining
            }
            RestoreMode::Lockstep => self.store_busy() || self.restore_word < CTX_WORDS,
            RestoreMode::None | RestoreMode::Omitted => false,
        }
    }

    fn sched_mut(&mut self) -> &mut HwScheduler {
        self.sched
            .as_mut()
            .expect("hardware scheduling instruction without (T) enabled")
    }

    /// Restarts the preloader for the current ready-list head if the
    /// buffered prediction no longer matches.
    fn preload_refresh(&mut self) {
        if !self.cfg.preload {
            return;
        }
        let head = self.sched.as_ref().and_then(|s| s.head()).map(|(id, _)| id);
        if head != self.preload_id {
            self.preload_id = head;
            self.preload_word = 0;
        }
    }

    fn preload_complete_for(&self, id: u8) -> bool {
        self.preload_id == Some(id) && self.preload_word == CTX_WORDS
    }

    fn begin_restore(&mut self, id: u8) {
        debug_assert!(self.cfg.load);
        if self.cfg.load_omission && id == self.current_id {
            self.restore_mode = RestoreMode::Omitted;
            self.stats.omitted_loads += 1;
            return;
        }
        if self.cfg.preload {
            if self.preload_complete_for(id) {
                self.restore_mode = RestoreMode::Lockstep;
                self.restore_word = 0;
                self.restore_id = id;
                self.stats.preload_hits += 1;
                return;
            }
            self.stats.preload_misses += 1;
        }
        self.restore_mode = RestoreMode::Memory;
        self.restore_pending = true;
        self.restore_active = false;
        self.restore_word = 0;
        self.restore_id = id;
    }

    fn ctx_word_value(state: &ArchState, word: usize) -> u32 {
        match word {
            CTX_MSTATUS_IDX => state.csrs.mstatus,
            CTX_MEPC_IDX => state.csrs.mepc,
            w => state.bank_read(Bank::App, ctx_reg(w)),
        }
    }

    fn write_ctx_word(state: &mut ArchState, word: usize, value: u32) {
        match word {
            CTX_MSTATUS_IDX => state.csrs.mstatus = value,
            CTX_MEPC_IDX => state.csrs.mepc = value,
            w => state.bank_write_clean(Bank::App, ctx_reg(w), value),
        }
    }

    /// Advances `store_word` to the next masked word at or after `from`.
    fn next_store_word(&self, from: usize) -> usize {
        let mut w = from;
        while w < CTX_WORDS && self.store_mask & (1 << w) == 0 {
            w += 1;
        }
        w
    }

    /// Arms the restore FSM once the store has drained (the restore may
    /// be requested before or after the store finishes, depending on how
    /// long the scheduler runs).
    fn maybe_start_restore(&mut self) {
        if !self.store_busy() && self.restore_pending && self.restore_mode == RestoreMode::Memory {
            self.restore_pending = false;
            self.restore_active = true;
            self.restore_word = 0;
        }
    }

    /// Serializes the unit — hardware list length, scheduler, semaphores,
    /// every FSM cursor, the preloader and the counters — for a
    /// machine-state snapshot. The features are the preset's, so they
    /// are not written: the scheduler and the preloader are `null`, and
    /// the semaphore bank empty, exactly when the preset builds none.
    pub fn to_snap(&self) -> Json {
        let sems: Vec<Json> = self
            .sems
            .iter()
            .map(|s| {
                let waiters: Vec<Json> = s
                    .waiters
                    .iter()
                    .map(|&(task, prio)| {
                        Json::object()
                            .with("task", u32::from(task))
                            .with("prio", u32::from(prio))
                    })
                    .collect();
                Json::object()
                    .with("count", s.count)
                    .with("waiters", waiters)
            })
            .collect();
        let opt_id = |id: Option<u8>| id.map_or(Json::Int(-1), |id| Json::UInt(u64::from(id)));
        let preload = match self.cfg.preload {
            false => Json::Null,
            true => Json::object()
                .with("buf", snap::runs_to_json(&self.preload_buf))
                .with("id", opt_id(self.preload_id))
                .with("word", self.preload_word),
        };
        let (mut counters, mut stats) = (self.stats, Json::object());
        for (name, value) in counters.fields_mut() {
            stats.push(name, *value);
        }
        Json::object()
            .with("list_len", self.cfg.list_len)
            .with(
                "sched",
                self.sched.as_ref().map_or(Json::Null, |s| s.to_snap()),
            )
            .with("sems", sems)
            .with("current_id", u32::from(self.current_id))
            .with("pending_next", opt_id(self.pending_next))
            .with("in_isr", self.in_isr)
            .with("store_active", self.store_active)
            .with("store_draining", self.store_draining)
            .with("store_word", self.store_word)
            .with("store_mask", self.store_mask)
            .with(
                "restore_mode",
                match self.restore_mode {
                    RestoreMode::None => "none",
                    RestoreMode::Memory => "memory",
                    RestoreMode::Lockstep => "lockstep",
                    RestoreMode::Omitted => "omitted",
                },
            )
            .with("restore_pending", self.restore_pending)
            .with("restore_active", self.restore_active)
            .with("restore_draining", self.restore_draining)
            .with("restore_word", self.restore_word)
            .with("restore_id", u32::from(self.restore_id))
            .with("preload", preload)
            .with("stats", stats)
    }

    /// Rebuilds a unit of configuration `cfg` — the preset's, with the
    /// list length already validated by the caller — from
    /// [`to_snap`](Self::to_snap) output.
    ///
    /// # Errors
    ///
    /// Fails on malformed fields; on scheduler, semaphore or preloader
    /// state that `cfg` does not build; on a restore mode `cfg` never
    /// enters; on cursors beyond the context size; or on an active store
    /// or restore FSM whose cursor is past the last context word.
    pub fn from_snap(value: &Json, cfg: RtosUnitConfig) -> Result<RtosUnit, SnapError> {
        // The scheduler and the preloader are present exactly when the
        // preset builds them.
        let present = |key: &str, built: bool| match (snap::field(value, key)?, built) {
            (Json::Null, false) => Ok(None),
            (v, true) if !matches!(v, Json::Null) => Ok(Some(v)),
            _ => Err(SnapError::new(format!(
                "unit: `{key}` state disagrees with the preset's unit"
            ))),
        };
        let sched = present("sched", cfg.sched)?
            .map(|v| HwScheduler::from_snap(v, cfg.list_len))
            .transpose()?;
        let mut sems = Vec::new();
        for s in snap::get_array(value, "sems")? {
            let mut waiters = Vec::new();
            for w in snap::get_array(s, "waiters")? {
                waiters.push((snap::get_u8(w, "task")?, snap::get_u8(w, "prio")?));
            }
            sems.push(HwSemaphore {
                count: snap::get_u32(s, "count")?,
                waiters,
            });
        }
        if sems.len() != if cfg.hw_sync { 8 } else { 0 } {
            return Err(SnapError::new(
                "unit: semaphore state disagrees with the preset's unit",
            ));
        }
        let opt_id = |obj: &Json, key: &str| -> Result<Option<u8>, SnapError> {
            match snap::field(obj, key)? {
                Json::Int(-1) => Ok(None),
                j => j
                    .as_u64()
                    .and_then(|v| u8::try_from(v).ok())
                    .map(Some)
                    .ok_or_else(|| SnapError::new(format!("unit: bad task id in `{key}`"))),
            }
        };
        let restore_mode = match snap::get_str(value, "restore_mode")? {
            "none" => RestoreMode::None,
            "memory" if cfg.load => RestoreMode::Memory,
            "lockstep" if cfg.preload => RestoreMode::Lockstep,
            "omitted" if cfg.load_omission => RestoreMode::Omitted,
            other => {
                return Err(SnapError::new(format!(
                    "unit: restore mode `{other}` is not one this unit enters"
                )))
            }
        };
        let bounded = |obj: &Json, key: &str| -> Result<usize, SnapError> {
            let w = snap::get_usize(obj, key)?;
            if w > CTX_WORDS {
                return Err(SnapError::new(format!(
                    "unit: `{key}` cursor {w} beyond context"
                )));
            }
            Ok(w)
        };
        // An active store or restore FSM moves its cursor's context word
        // on the next step, so the cursor must name one.
        let fsm = |active: &str, cursor: &str| -> Result<(bool, usize), SnapError> {
            let on = snap::get_bool(value, active)?;
            let w = bounded(value, cursor)?;
            if on && w >= CTX_WORDS {
                return Err(SnapError::new(format!(
                    "unit: `{active}` with `{cursor}` {w} past the context"
                )));
            }
            Ok((on, w))
        };
        let (store_active, store_word) = fsm("store_active", "store_word")?;
        let (restore_active, restore_word) = fsm("restore_active", "restore_word")?;
        let mut preload_buf = [0u32; CTX_WORDS];
        let (preload_id, preload_word) = match present("preload", cfg.preload)? {
            None => (None, 0),
            Some(p) => {
                let words = snap::runs_from_json(snap::field(p, "buf")?, CTX_WORDS)?;
                preload_buf.copy_from_slice(&words);
                (opt_id(p, "id")?, bounded(p, "word")?)
            }
        };
        let (st, mut stats) = (snap::field(value, "stats")?, UnitStats::default());
        for (name, slot) in stats.fields_mut() {
            *slot = snap::get_u64(st, name)?;
        }
        Ok(RtosUnit {
            cfg,
            sched,
            sems,
            current_id: snap::get_u8(value, "current_id")?,
            pending_next: opt_id(value, "pending_next")?,
            in_isr: snap::get_bool(value, "in_isr")?,
            store_active,
            store_draining: snap::get_bool(value, "store_draining")?,
            store_word,
            store_mask: snap::get_u32(value, "store_mask")?,
            restore_mode,
            restore_pending: snap::get_bool(value, "restore_pending")?,
            restore_active,
            restore_draining: snap::get_bool(value, "restore_draining")?,
            restore_word,
            restore_id: snap::get_u8(value, "restore_id")?,
            preload_buf,
            preload_id,
            preload_word,
            stats,
        })
    }
}

impl Coprocessor for RtosUnit {
    fn on_interrupt_entry(&mut self, state: &mut ArchState, cause: u32) {
        self.in_isr = true;
        self.stats.interrupts += 1;
        if let Some(s) = self.sched.as_mut() {
            if cause == csr::CAUSE_TIMER {
                s.tick();
            }
        }
        if self.cfg.store {
            // Switch to the ISR bank; the old bank is drained in the
            // background (§4.2).
            state.set_active_bank(Bank::Isr);
            let mut mask: u32 = (1 << CTX_MSTATUS_IDX) | (1 << CTX_MEPC_IDX);
            for w in 0..29 {
                if !self.cfg.dirty_bits || state.is_dirty(ctx_reg(w)) {
                    mask |= 1 << w;
                }
            }
            self.store_mask = mask;
            self.store_word = self.next_store_word(0);
            self.store_active = self.store_word < CTX_WORDS;
            self.store_draining = false;
        }
        self.restore_mode = RestoreMode::None;
        self.restore_pending = false;
        self.restore_active = false;
        self.restore_draining = false;
        // A tick may have woken a task and changed the ready head,
        // invalidating the speculative preload (§4.7).
        self.preload_refresh();
    }

    fn mret_stall(&self) -> bool {
        self.restore_busy()
    }

    fn on_mret(&mut self, state: &mut ArchState) {
        debug_assert!(!self.restore_busy(), "mret retired with restore in flight");
        if self.cfg.store && self.cfg.load {
            // Automatic bank switch on mret (§4.3).
            state.set_active_bank(Bank::App);
        }
        debug_assert_eq!(
            state.active_bank(),
            Bank::App,
            "mret retired while still on the ISR bank — missing SWITCH_RF?"
        );
        if let Some(next) = self.pending_next.take() {
            self.current_id = next;
        }
        if self.cfg.dirty_bits {
            // All dirty bits are cleared after ISR completion (§4.5): the
            // application bank now mirrors the restored context memory.
            state.clear_dirty();
        }
        self.in_isr = false;
        self.restore_mode = RestoreMode::None;
        self.preload_refresh();
    }

    fn custom_stall(&self, op: CustomOp) -> bool {
        match op {
            // SWITCH_RF is delayed while storing is in progress (§4.2),
            // including while issued stores drain from the ctxQueue (§5.3).
            CustomOp::SwitchRf => self.store_busy(),
            // The head is only trustworthy once iterative sorting settled.
            CustomOp::GetHwSched => self.sched.as_ref().is_some_and(|s| s.sort_busy() > 0),
            _ => false,
        }
    }

    fn exec_custom(&mut self, op: CustomOp, rs1: u32, rs2: u32, state: &mut ArchState) -> u32 {
        self.stats.custom_instrs += 1;
        match op {
            CustomOp::AddReady => {
                let ok = self.sched_mut().add_ready(rs1 as u8, rs2 as u8);
                assert!(
                    ok,
                    "hardware ready list overflow (task {rs1}); size the workload within list_len"
                );
                self.preload_refresh();
                0
            }
            CustomOp::AddDelay => {
                let id = self.current_id;
                let ok = self.sched_mut().add_delay(id, rs1 as u8, rs2);
                assert!(ok, "hardware delay list overflow (task {id})");
                self.preload_refresh();
                0
            }
            CustomOp::RmTask => {
                self.sched_mut().rm_task(rs1 as u8);
                self.preload_refresh();
                0
            }
            CustomOp::SetContextId => {
                let id = rs1 as u8;
                self.pending_next = Some(id);
                // Outside an ISR this only latches the id (boot-time
                // initialisation); a restore would clobber live registers.
                if self.cfg.load && self.in_isr {
                    self.begin_restore(id);
                }
                0
            }
            CustomOp::GetHwSched => {
                let id = self
                    .sched_mut()
                    .pop_rotate()
                    .expect("GET_HW_SCHED on an empty ready list — no idle task?");
                self.pending_next = Some(id);
                if self.cfg.load && self.in_isr {
                    self.begin_restore(id);
                }
                u32::from(id)
            }
            CustomOp::SwitchRf => {
                debug_assert!(
                    !self.store_active,
                    "SWITCH_RF executed while store FSM busy"
                );
                state.set_active_bank(Bank::App);
                0
            }
            CustomOp::SemTake => {
                assert!(self.cfg.hw_sync, "SEM_TAKE without the hw_sync extension");
                let id = (rs1 as usize) % self.sems.len();
                let prio = rs2 as u8;
                let current = self.current_id;
                let sem = &mut self.sems[id];
                if sem.count > 0 {
                    sem.count -= 1;
                    self.stats.sem_takes += 1;
                    1
                } else {
                    // Block in hardware: leave the ready list and join
                    // this semaphore's wait list.
                    sem.waiters.push((current, prio));
                    self.sched_mut().rm_task(current);
                    self.preload_refresh();
                    self.stats.sem_blocks += 1;
                    0
                }
            }
            CustomOp::SemGive => {
                assert!(self.cfg.hw_sync, "SEM_GIVE without the hw_sync extension");
                let id = (rs1 as usize) % self.sems.len();
                self.stats.sem_gives += 1;
                match self.sems[id].pop_waiter() {
                    Some((task, prio)) => {
                        // Direct hand-off: the waiter gets the token and
                        // becomes ready.
                        let ok = self.sched_mut().add_ready(task, prio);
                        assert!(ok, "ready list overflow waking semaphore waiter");
                        self.preload_refresh();
                        u32::from(prio) + 1
                    }
                    None => {
                        self.sems[id].count += 1;
                        0
                    }
                }
            }
        }
    }

    fn step<B: DataBus>(&mut self, state: &mut ArchState, bus: &mut B) {
        if let Some(s) = self.sched.as_mut() {
            s.step();
        }
        // Drain tracking: issued work completes when the bus reports no
        // pending ctxQueue entries (instantaneous on queue-less buses).
        if self.store_draining && bus.unit_pending() == 0 {
            self.store_draining = false;
        }
        if self.restore_draining && bus.unit_pending() == 0 {
            self.restore_draining = false;
        }
        self.maybe_start_restore();

        // Lockstep restore consumes no memory port: it writes the
        // register file directly from the preload buffer, trailing the
        // store FSM (§4.7).
        if self.restore_mode == RestoreMode::Lockstep && self.restore_word < CTX_WORDS {
            let store_pos = if self.store_active {
                self.store_word
            } else {
                CTX_WORDS
            };
            if self.restore_word < store_pos {
                Self::write_ctx_word(
                    state,
                    self.restore_word,
                    self.preload_buf[self.restore_word],
                );
                self.restore_word += 1;
            }
        }

        // One shared-port access per cycle, priority: store > restore >
        // preload.
        if self.store_active {
            let w = self.store_word;
            let value = Self::ctx_word_value(state, w);
            let addr = ctx_word_addr(u32::from(self.current_id), w);
            if bus.unit_access(addr, Some(value)).is_some() {
                self.stats.store_words += 1;
                self.store_word = self.next_store_word(w + 1);
                if self.store_word >= CTX_WORDS {
                    self.store_active = false;
                    self.store_draining = bus.unit_pending() > 0;
                    self.maybe_start_restore();
                }
            } else {
                self.stats.store_stall_cycles += 1;
            }
            return;
        }

        if self.restore_active {
            let w = self.restore_word;
            let addr = ctx_word_addr(u32::from(self.restore_id), w);
            if let Some(v) = bus.unit_access(addr, None) {
                Self::write_ctx_word(state, w, v);
                self.stats.load_words += 1;
                self.restore_word += 1;
                if self.restore_word >= CTX_WORDS {
                    self.restore_active = false;
                    self.restore_draining = bus.unit_pending() > 0;
                }
            } else {
                self.stats.load_stall_cycles += 1;
            }
            return;
        }

        // Speculative preloading only runs outside ISRs and never
        // interferes with computation (lowest priority, §4.7).
        if self.cfg.preload && !self.in_isr && self.preload_word < CTX_WORDS {
            if let Some(id) = self.preload_id {
                let addr = ctx_word_addr(u32::from(id), self.preload_word);
                if let Some(v) = bus.unit_access(addr, None) {
                    self.preload_buf[self.preload_word] = v;
                    self.preload_word += 1;
                    self.stats.preload_words += 1;
                }
            }
        }
    }

    fn is_idle(&self) -> bool {
        // Every branch of `step` must be a no-op for the batched run to
        // skip the per-cycle polling: no store/restore FSM activity, no
        // scheduler sort in flight, and no preload wanting port cycles.
        let preload_wants_port = self.cfg.preload
            && !self.in_isr
            && self.preload_id.is_some()
            && self.preload_word < CTX_WORDS;
        !self.store_busy()
            && !self.restore_busy()
            && !self.store_draining
            && !self.restore_draining
            && self.sched.as_ref().is_none_or(|s| s.sort_busy() == 0)
            && !preload_wants_port
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::Preset;
    use rvsim_cores::engine::BusResponse;
    use rvsim_mem::{AccessSize, Mem};

    /// A bus where the unit is granted every cycle (fully idle core).
    struct IdleBus {
        mem: Mem,
    }

    impl DataBus for IdleBus {
        fn core_access(&mut self, addr: u32, size: AccessSize, write: Option<u32>) -> BusResponse {
            match write {
                Some(v) => {
                    self.mem.write(addr, size, v);
                    BusResponse {
                        data: 0,
                        extra_latency: 0,
                    }
                }
                None => BusResponse {
                    data: self.mem.read(addr, size),
                    extra_latency: 1,
                },
            }
        }

        fn unit_access(&mut self, addr: u32, write: Option<u32>) -> Option<u32> {
            Some(match write {
                Some(v) => {
                    self.mem.write_word(addr, v);
                    0
                }
                None => self.mem.read_word(addr),
            })
        }
    }

    fn idle_bus() -> IdleBus {
        IdleBus {
            mem: Mem::new(crate::layout::DMEM_BASE, crate::layout::DMEM_SIZE),
        }
    }

    fn unit(preset: Preset) -> RtosUnit {
        RtosUnit::new(RtosUnitConfig::from_preset(preset).expect("preset with unit"))
    }

    fn fill_regs(state: &mut ArchState) {
        for (i, r) in rvsim_isa::Reg::CONTEXT_REGS.iter().enumerate() {
            state.write_reg(*r, 0x100 + i as u32);
        }
        state.csrs.mstatus = 0x88;
        state.csrs.mepc = 0x4242;
    }

    #[test]
    fn store_fsm_drains_full_context() {
        let mut u = unit(Preset::S);
        let mut state = ArchState::new(0);
        let mut bus = idle_bus();
        fill_regs(&mut state);
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        assert_eq!(state.active_bank(), Bank::Isr);
        assert!(u.store_busy());
        for _ in 0..CTX_WORDS {
            u.step(&mut state, &mut bus);
        }
        assert!(!u.store_busy());
        assert_eq!(u.stats.store_words, CTX_WORDS as u64);
        // Word 0 is ra, word 30 is mepc, for task id 0.
        assert_eq!(bus.mem.read_word(ctx_word_addr(0, 0)), 0x100);
        assert_eq!(bus.mem.read_word(ctx_word_addr(0, CTX_MEPC_IDX)), 0x4242);
        assert_eq!(bus.mem.read_word(ctx_word_addr(0, CTX_MSTATUS_IDX)), 0x88);
    }

    #[test]
    fn switch_rf_stalls_until_store_done() {
        let mut u = unit(Preset::S);
        let mut state = ArchState::new(0);
        let mut bus = idle_bus();
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        assert!(u.custom_stall(CustomOp::SwitchRf));
        for _ in 0..CTX_WORDS {
            u.step(&mut state, &mut bus);
        }
        assert!(!u.custom_stall(CustomOp::SwitchRf));
        u.exec_custom(CustomOp::SwitchRf, 0, 0, &mut state);
        assert_eq!(state.active_bank(), Bank::App);
    }

    #[test]
    fn restore_waits_for_store_and_loads_context() {
        let mut u = unit(Preset::Sl);
        let mut state = ArchState::new(0);
        let mut bus = idle_bus();
        // Pre-place task 2's context in memory.
        for w in 0..CTX_WORDS {
            bus.mem.write_word(ctx_word_addr(2, w), 0x9000 + w as u32);
        }
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        u.exec_custom(CustomOp::SetContextId, 2, 0, &mut state);
        assert!(u.mret_stall());
        // Store (31) + restore (31) cycles on a fully idle port.
        for _ in 0..(2 * CTX_WORDS) {
            u.step(&mut state, &mut bus);
        }
        assert!(!u.mret_stall());
        u.on_mret(&mut state);
        assert_eq!(state.active_bank(), Bank::App);
        assert_eq!(state.read_reg(rvsim_isa::Reg::Ra), 0x9000);
        assert_eq!(state.csrs.mepc, 0x9000 + CTX_MEPC_IDX as u32);
        assert_eq!(u.current_task(), 2);
    }

    #[test]
    fn dirty_bits_reduce_store_traffic() {
        let mut u = unit(Preset::Sdlo);
        let mut state = ArchState::new(0);
        let mut bus = idle_bus();
        // Only two registers dirtied.
        state.write_reg(rvsim_isa::Reg::A0, 1);
        state.write_reg(rvsim_isa::Reg::Sp, 2);
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        for _ in 0..CTX_WORDS {
            u.step(&mut state, &mut bus);
        }
        // 2 dirty registers + mstatus + mepc.
        assert_eq!(u.stats.store_words, 4);
    }

    #[test]
    fn load_omission_skips_same_task_restore() {
        let mut u = unit(Preset::Sdlo);
        let mut state = ArchState::new(0);
        // current task is 0; schedule 0 again.
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER);
        u.exec_custom(CustomOp::SetContextId, 0, 0, &mut state);
        assert_eq!(u.stats.omitted_loads, 1);
        let mut bus = idle_bus();
        for _ in 0..CTX_WORDS {
            u.step(&mut state, &mut bus);
        }
        assert!(!u.mret_stall());
        assert_eq!(u.stats.load_words, 0);
    }

    #[test]
    fn hw_sched_rotates_and_updates_current() {
        let mut u = unit(Preset::T);
        let mut state = ArchState::new(0);
        u.exec_custom(CustomOp::AddReady, 1, 5, &mut state);
        u.exec_custom(CustomOp::AddReady, 2, 5, &mut state);
        let id = u.exec_custom(CustomOp::GetHwSched, 0, 0, &mut state);
        assert_eq!(id, 1);
        u.on_mret(&mut state);
        assert_eq!(u.current_task(), 1);
        let id2 = u.exec_custom(CustomOp::GetHwSched, 0, 0, &mut state);
        assert_eq!(id2, 2);
    }

    #[test]
    fn get_hw_sched_stalls_while_sorting() {
        let mut u = unit(Preset::T);
        let mut state = ArchState::new(0);
        u.exec_custom(CustomOp::AddReady, 1, 1, &mut state);
        u.exec_custom(CustomOp::AddReady, 2, 9, &mut state);
        assert!(u.custom_stall(CustomOp::GetHwSched));
        let mut bus = idle_bus();
        for _ in 0..8 {
            u.step(&mut state, &mut bus);
        }
        assert!(!u.custom_stall(CustomOp::GetHwSched));
    }

    #[test]
    fn timer_tick_wakes_delayed_tasks() {
        let mut u = unit(Preset::T);
        let mut state = ArchState::new(0);
        u.exec_custom(CustomOp::AddReady, 1, 1, &mut state);
        // current task (0) delays itself 2 ticks.
        u.exec_custom(CustomOp::AddDelay, 7, 2, &mut state);
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER); // tick 1
        assert_eq!(u.scheduler().unwrap().delay_len(), 1);
        u.on_interrupt_entry(&mut state, csr::CAUSE_TIMER); // tick 2 -> wake
        assert_eq!(u.scheduler().unwrap().delay_len(), 0);
        // Task 0 (prio 7) must now beat task 1 (prio 1).
        let id = u.exec_custom(CustomOp::GetHwSched, 0, 0, &mut state);
        assert_eq!(id, 0);
    }

    #[test]
    fn preload_hit_restores_in_lockstep() {
        let mut u = unit(Preset::Split);
        let mut state = ArchState::new(0);
        let mut bus = idle_bus();
        // Two tasks: current 0, ready head 1 with a stored context.
        for w in 0..CTX_WORDS {
            bus.mem.write_word(ctx_word_addr(1, w), 0x7000 + w as u32);
        }
        u.exec_custom(CustomOp::AddReady, 1, 5, &mut state);
        // Let the preloader fill its buffer (outside the ISR).
        for _ in 0..(CTX_WORDS + u.scheduler().unwrap().capacity()) {
            u.step(&mut state, &mut bus);
        }
        assert_eq!(u.stats.preload_words, CTX_WORDS as u64);

        u.on_interrupt_entry(&mut state, csr::CAUSE_SOFTWARE);
        let id = u.exec_custom(CustomOp::GetHwSched, 0, 0, &mut state);
        assert_eq!(id, 1);
        assert_eq!(u.stats.preload_hits, 1);
        // Lockstep: finishing the store also finishes the restore shortly
        // after; no load words from memory.
        let mut cycles = 0;
        while u.mret_stall() {
            u.step(&mut state, &mut bus);
            cycles += 1;
            assert!(cycles < 3 * CTX_WORDS, "lockstep restore did not converge");
        }
        assert_eq!(u.stats.load_words, 0);
        u.on_mret(&mut state);
        assert_eq!(state.read_reg(rvsim_isa::Reg::Ra), 0x7000);
        assert!(
            cycles <= CTX_WORDS + 2,
            "lockstep should track the store: {cycles}"
        );
    }

    #[test]
    fn preload_miss_falls_back_to_memory_restore() {
        let mut u = unit(Preset::Split);
        let mut state = ArchState::new(0);
        let mut bus = idle_bus();
        for w in 0..CTX_WORDS {
            bus.mem.write_word(ctx_word_addr(1, w), 0xAA00 + w as u32);
            bus.mem.write_word(ctx_word_addr(2, w), 0xBB00 + w as u32);
        }
        u.exec_custom(CustomOp::AddReady, 1, 5, &mut state);
        for _ in 0..(2 * CTX_WORDS) {
            u.step(&mut state, &mut bus);
        }
        // A higher-priority task becomes ready right at the interrupt —
        // the preloaded head (1) is no longer the winner.
        u.on_interrupt_entry(&mut state, csr::CAUSE_SOFTWARE);
        u.exec_custom(CustomOp::AddReady, 2, 9, &mut state);
        while u.custom_stall(CustomOp::GetHwSched) {
            u.step(&mut state, &mut bus);
        }
        let id = u.exec_custom(CustomOp::GetHwSched, 0, 0, &mut state);
        assert_eq!(id, 2);
        assert_eq!(u.stats.preload_misses, 1);
        while u.mret_stall() {
            u.step(&mut state, &mut bus);
        }
        assert!(u.stats.load_words >= CTX_WORDS as u64);
        u.on_mret(&mut state);
        assert_eq!(state.read_reg(rvsim_isa::Reg::Ra), 0xBB00);
    }

    #[test]
    #[should_panic(expected = "empty ready list")]
    fn get_hw_sched_on_empty_list_panics() {
        let mut u = unit(Preset::T);
        let mut state = ArchState::new(0);
        u.exec_custom(CustomOp::GetHwSched, 0, 0, &mut state);
    }
}
