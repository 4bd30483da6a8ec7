//! The kernel builder: declares tasks and semaphores, emits the guest
//! image (text + initial data) for a given RTOSUnit preset.

use crate::emit::{self, LabelGen};
use crate::isr::{gen_isr, IsrSpec};
use crate::klayout::{canary_addr, tcb, tcb_checksum, KernelLayout, CANARY_MAGIC, NUM_PRIOS};
use crate::probe::{self, Probe};
use crate::protect::{self, ProtectSpec};
use crate::syscalls::gen_syscalls;
use rtosunit::layout::{
    ctx_index_of, ctx_word_addr, CTX_MEPC_IDX, CTX_MSTATUS_IDX, IMEM_BASE, MMIO_CONSOLE, MMIO_HALT,
    MMIO_IPI_SEND, MMIO_TRACE,
};
use rtosunit::{Preset, System};
use rvsim_isa::{csr, Asm, AsmError, Program, Reg};
use std::collections::HashMap;
use std::fmt;

/// Initial `mstatus` of a not-yet-run task: MPIE set so `mret` enables
/// interrupts, MPP = machine mode.
const INITIAL_MSTATUS: u32 = csr::MSTATUS_MPIE | csr::MSTATUS_MPP;

/// Kernel-construction errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum KernelError {
    /// Assembly failed (label problems, range overflows).
    Asm(AsmError),
    /// Two tasks or semaphores share a name.
    DuplicateName(String),
    /// Task priority outside `1..NUM_PRIOS` (0 is reserved for idle).
    BadPriority(String, u8),
    /// More tasks than the hardware lists / lookup table support.
    TooManyTasks(usize),
    /// No user task was declared.
    NoTasks,
    /// An SMP task's affinity mask selects no hart of the system.
    BadAffinity(String, u32),
    /// A hardware list capacity the unit cannot be built with (see
    /// [`rtosunit::RtosUnitConfig::with_list_len`]).
    BadListLen(usize),
}

impl fmt::Display for KernelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            KernelError::Asm(e) => write!(f, "assembly failed: {e}"),
            KernelError::DuplicateName(n) => write!(f, "duplicate name `{n}`"),
            KernelError::BadPriority(n, p) => {
                write!(
                    f,
                    "task `{n}` has priority {p}; expected 1..={}",
                    NUM_PRIOS - 1
                )
            }
            KernelError::TooManyTasks(n) => write!(f, "{n} tasks exceed the capacity"),
            KernelError::NoTasks => write!(f, "at least one task is required"),
            KernelError::BadAffinity(n, m) => {
                write!(f, "task `{n}` affinity {m:#x} selects no hart")
            }
            KernelError::BadListLen(n) => write!(f, "no hardware list holds {n} slots"),
        }
    }
}

impl std::error::Error for KernelError {}

impl From<AsmError> for KernelError {
    fn from(e: AsmError) -> Self {
        KernelError::Asm(e)
    }
}

/// Handle passed to task-body closures; wraps the assembler with kernel
/// services. Bodies are automatically wrapped in an endless loop (FreeRTOS
/// tasks never return).
pub struct TaskCtx<'a> {
    asm: &'a mut Asm,
    lg: &'a mut LabelGen,
    layout: KernelLayout,
    sem_map: &'a HashMap<String, usize>,
    hw_sync: bool,
    probe: bool,
}

impl TaskCtx<'_> {
    /// Voluntarily yields the processor (software interrupt).
    pub fn yield_now(&mut self) {
        self.asm.call("k_yield");
    }

    /// Blocks for `ticks` timer ticks (`vTaskDelay`).
    pub fn delay(&mut self, ticks: u32) {
        self.asm.li(Reg::A0, ticks as i32);
        self.asm.call("k_delay");
    }

    fn sem_a0(&mut self, name: &str) {
        let idx = *self
            .sem_map
            .get(name)
            .unwrap_or_else(|| panic!("unknown semaphore `{name}` — declare it before build"));
        // With the §7 hardware-synchronisation extension semaphores are
        // addressed by hardware id, otherwise by control-block address.
        if self.hw_sync {
            self.asm.li(Reg::A0, idx as i32);
        } else {
            self.asm.li(Reg::A0, self.layout.sem_addr(idx) as i32);
        }
    }

    /// Takes (P) the named semaphore, blocking while unavailable.
    pub fn sem_take(&mut self, name: &str) {
        self.sem_a0(name);
        self.asm.call("k_sem_take");
    }

    /// Gives (V) the named semaphore, waking the highest-priority waiter.
    pub fn sem_give(&mut self, name: &str) {
        self.sem_a0(name);
        self.asm.call("k_sem_give");
    }

    /// Gives (V) the named semaphore *on another hart*: writes
    /// `(target_hart << 8) | (sem index + 1)` to the IPI doorbell, which
    /// raises the target's software interrupt; the target's ISR drains
    /// the mailbox and performs the give locally (the image must be built
    /// with [`KernelBuilder::ipi`] enabled on the receiving hart).
    ///
    /// The semaphore index is resolved against *this* image's
    /// declaration order — SMP images built by one
    /// [`SmpKernelBuilder`](crate::SmpKernelBuilder) share it.
    pub fn ipi_give(&mut self, target_hart: u32, name: &str) {
        let idx = *self
            .sem_map
            .get(name)
            .unwrap_or_else(|| panic!("unknown semaphore `{name}` — declare it before build"));
        let code = idx as u32 + 1;
        emit::disable_irq(self.asm);
        self.asm.li(Reg::T0, MMIO_IPI_SEND as i32);
        self.asm.li(Reg::T1, ((target_hart << 8) | code) as i32);
        self.asm.sw(Reg::T1, 0, Reg::T0);
        if self.probe {
            // Announced after the doorbell write but still inside the
            // IRQ-off window, so the trace orders the send before any
            // local consequence of it — and a checker that stops the run
            // when no IPI is queued can never separate a queued send from
            // its probe.
            probe::emit_probe(
                self.asm,
                Probe::IpiSend {
                    target: target_hart,
                    code,
                },
            );
        }
        emit::enable_irq(self.asm);
    }

    /// Locks a mutex (a semaphore created with count 1).
    pub fn mutex_lock(&mut self, name: &str) {
        self.sem_take(name);
    }

    /// Unlocks a mutex.
    pub fn mutex_unlock(&mut self, name: &str) {
        self.sem_give(name);
    }

    /// Writes a trace marker (collected by the platform with its cycle).
    pub fn trace_mark(&mut self, value: u32) {
        self.asm.li(Reg::T0, MMIO_TRACE as i32);
        self.asm.li(Reg::T1, value as i32);
        self.asm.sw(Reg::T1, 0, Reg::T0);
    }

    /// Writes `value` to the debug console.
    pub fn console(&mut self, value: u32) {
        self.asm.li(Reg::T0, MMIO_CONSOLE as i32);
        self.asm.li(Reg::T1, value as i32);
        self.asm.sw(Reg::T1, 0, Reg::T0);
    }

    /// Stops the simulation.
    pub fn halt(&mut self) {
        self.asm.li(Reg::T0, MMIO_HALT as i32);
        self.asm.sw(Reg::Zero, 0, Reg::T0);
    }

    /// Burns roughly `iters` loop iterations of CPU time.
    pub fn busy_work(&mut self, iters: u32) {
        let l = self.lg.fresh("busy");
        self.asm.li(Reg::T0, iters as i32);
        self.asm.label(&l);
        self.asm.addi(Reg::T0, Reg::T0, -1);
        self.asm.bnez(Reg::T0, &l);
    }

    /// A compute kernel that exercises a realistic register working set
    /// (about a dozen registers dirtied per pass) for `iters` iterations.
    /// Used by the benchmark workloads so dirty-bit configurations (§4.5)
    /// see representative store traffic.
    pub fn compute(&mut self, iters: u32) {
        let l = self.lg.fresh("comp");
        let a = &mut *self.asm;
        a.li(Reg::T0, iters as i32);
        a.li(Reg::S2, 0x13);
        a.li(Reg::S3, 7);
        a.li(Reg::S7, 0x5a5a);
        a.label(&l);
        a.add(Reg::S4, Reg::S2, Reg::S3);
        a.xor(Reg::S5, Reg::S4, Reg::S7);
        a.slli(Reg::S6, Reg::S5, 1);
        a.add(Reg::A2, Reg::S6, Reg::S4);
        a.srli(Reg::A3, Reg::A2, 2);
        a.add(Reg::A4, Reg::A3, Reg::S5);
        a.sub(Reg::S8, Reg::A4, Reg::S2);
        a.or(Reg::S9, Reg::S8, Reg::S3);
        a.add(Reg::S2, Reg::S3, Reg::A3);
        a.addi(Reg::S3, Reg::S3, 3);
        a.addi(Reg::T0, Reg::T0, -1);
        a.bnez(Reg::T0, &l);
    }

    /// A fresh local label for hand-written control flow.
    pub fn fresh_label(&mut self, stem: &str) -> String {
        self.lg.fresh(stem)
    }

    /// Raw access to the assembler for custom task code.
    pub fn asm_mut(&mut self) -> &mut Asm {
        self.asm
    }
}

type TaskBody = Box<dyn FnOnce(&mut TaskCtx)>;

struct TaskSpec {
    name: String,
    prio: u8,
    body: TaskBody,
}

/// Builds one guest kernel image for a preset. See the
/// [crate-level example](crate).
pub struct KernelBuilder {
    preset: Preset,
    tick_period: u32,
    hw_list_len: usize,
    tasks: Vec<TaskSpec>,
    sems: Vec<(String, u32)>,
    ext_sem: Option<String>,
    trace_phases: bool,
    probe: bool,
    ipi: bool,
    protect: bool,
}

impl KernelBuilder {
    /// Creates a builder for `preset` with the default tick period.
    pub fn new(preset: Preset) -> KernelBuilder {
        KernelBuilder {
            preset,
            tick_period: rtosunit::system::DEFAULT_TICK_PERIOD,
            hw_list_len: 8,
            tasks: Vec::new(),
            sems: Vec::new(),
            ext_sem: None,
            trace_phases: false,
            probe: false,
            ipi: false,
            protect: false,
        }
    }

    /// Enables kernel self-protection ([`crate::protect`]): stack
    /// canaries checked on every switch, the tick watchdog the idle loop
    /// must pet, and the TCB checksum self-check. Real extra kernel work
    /// — perturbs latency, so it defaults off. A clobbered canary kills
    /// the corrupted task and reschedules on software-scheduled presets;
    /// hardware-scheduled presets halt, since their ready lists cannot be
    /// edited from software.
    pub fn protect(&mut self, on: bool) -> &mut Self {
        self.protect = on;
        self
    }

    /// Enables the ISR's IPI drain loop (SMP images): software interrupts
    /// also empty the hart's `MMIO_IPI_RECV` mailbox, giving semaphore
    /// `code - 1` per popped code. Single-hart images leave this off.
    pub fn ipi(&mut self, on: bool) -> &mut Self {
        self.ipi = on;
        self
    }

    /// Instruments the ISR with typed phase marks at its save/schedule
    /// boundaries (see [`rtosunit::PhaseCode`]). The extra stores change
    /// the measured switch latency, so this defaults off and is meant for
    /// waterfall analysis runs, not headline measurements.
    pub fn trace_phases(&mut self, on: bool) -> &mut Self {
        self.trace_phases = on;
        self
    }

    /// Instruments the kernel with scheduler-oracle probes (see
    /// [`crate::probe`]): every scheduler decision and every semaphore /
    /// delay-list transition is announced on the TRACE register from
    /// inside its critical section. Perturbs latency; keep off for
    /// measurements.
    pub fn probe(&mut self, on: bool) -> &mut Self {
        self.probe = on;
        self
    }

    /// Sets the hardware list capacity (default 8). Bounds the task count
    /// in hardware-scheduled configurations, and [`GuestImage::install`]
    /// sizes the unit's lists to it.
    pub fn hw_list_len(&mut self, len: usize) -> &mut Self {
        self.hw_list_len = len;
        self
    }

    /// Sets the timer-tick period in cycles.
    pub fn tick_period(&mut self, cycles: u32) -> &mut Self {
        self.tick_period = cycles;
        self
    }

    /// Declares a task. The first declared task runs at boot. `prio` must
    /// be `1..NUM_PRIOS` (0 is the idle task). The body is wrapped in an
    /// endless loop.
    pub fn task(
        &mut self,
        name: &str,
        prio: u8,
        body: impl FnOnce(&mut TaskCtx) + 'static,
    ) -> &mut Self {
        self.tasks.push(TaskSpec {
            name: name.to_string(),
            prio,
            body: Box::new(body),
        });
        self
    }

    /// Declares a counting semaphore with an initial count.
    pub fn semaphore(&mut self, name: &str, initial: u32) -> &mut Self {
        self.sems.push((name.to_string(), initial));
        self
    }

    /// Declares a mutex (semaphore with count 1).
    pub fn mutex(&mut self, name: &str) -> &mut Self {
        self.semaphore(name, 1)
    }

    /// Binds the external interrupt to `sem_give(name)` inside the ISR
    /// (deferred interrupt handling).
    pub fn ext_irq_gives(&mut self, name: &str) -> &mut Self {
        self.ext_sem = Some(name.to_string());
        self
    }

    /// Assembles the kernel and computes the initial data image.
    ///
    /// # Errors
    ///
    /// Returns a [`KernelError`] for invalid declarations or assembly
    /// failures.
    pub fn build(mut self) -> Result<GuestImage, KernelError> {
        if self.tasks.is_empty() {
            return Err(KernelError::NoTasks);
        }
        for t in &self.tasks {
            if t.prio == 0 || t.prio as usize >= NUM_PRIOS {
                return Err(KernelError::BadPriority(t.name.clone(), t.prio));
            }
        }
        // The idle task: lowest priority, always ready, parks in wfi.
        // With self-protection on it also pets the watchdog each pass —
        // idle running at all is the liveness signal being monitored.
        let pet_watchdog = self.protect;
        self.tasks.push(TaskSpec {
            name: "idle".to_string(),
            prio: 0,
            body: Box::new(move |t: &mut TaskCtx| {
                if pet_watchdog {
                    protect::emit_watchdog_pet(t.asm_mut());
                }
                t.asm_mut().wfi();
            }),
        });

        let n = self.tasks.len();
        {
            let mut names: Vec<&str> = self
                .tasks
                .iter()
                .map(|t| t.name.as_str())
                .chain(self.sems.iter().map(|(s, _)| s.as_str()))
                .collect();
            names.sort_unstable();
            for w in names.windows(2) {
                if w[0] == w[1] {
                    return Err(KernelError::DuplicateName(w[0].to_string()));
                }
            }
        }
        let hw_lists = rtosunit::RtosUnitConfig::from_preset(self.preset).filter(|c| c.sched);
        if hw_lists.is_some_and(|c| c.with_list_len(self.hw_list_len).is_err()) {
            return Err(KernelError::BadListLen(self.hw_list_len));
        }
        if n > crate::klayout::MAX_TASKS || (hw_lists.is_some() && n > self.hw_list_len) {
            return Err(KernelError::TooManyTasks(n));
        }

        let layout = KernelLayout::new(n, self.sems.len());
        let sem_map: HashMap<String, usize> = self
            .sems
            .iter()
            .enumerate()
            .map(|(i, (s, _))| (s.clone(), i))
            .collect();
        let hw_sync = rtosunit::RtosUnitConfig::from_preset(self.preset).is_some_and(|c| c.hw_sync);
        let ext_sem_addr = match &self.ext_sem {
            Some(name) => {
                let idx = *sem_map.get(name).ok_or_else(|| {
                    KernelError::DuplicateName(format!("unknown ext-irq semaphore {name}"))
                })?;
                Some(if hw_sync {
                    idx as u32
                } else {
                    layout.sem_addr(idx)
                })
            }
            None => None,
        };

        let mut a = Asm::new(IMEM_BASE);
        let mut lg = LabelGen::new();

        // ---- boot ----------------------------------------------------
        a.li(Reg::Sp, layout.stack_top(0) as i32);
        a.la(Reg::T0, "isr");
        a.csrw(csr::MTVEC, Reg::T0);
        if self.preset.has_sched() {
            // Populate the hardware ready list; the boot task goes last so
            // it sits behind its priority peers, like a just-selected task.
            for i in (1..n).chain([0]) {
                a.li(Reg::T0, i as i32);
                a.li(Reg::T1, self.tasks[i].prio as i32);
                a.add_ready(Reg::T0, Reg::T1);
            }
        }
        if self.preset.has_store() {
            // Tell the unit which context chunk the boot task owns.
            a.li(Reg::T0, 0);
            a.set_context_id(Reg::T0);
        }
        if hw_sync {
            // Prime the hardware semaphore counters with their initial
            // counts (one SEM_GIVE per unit of count).
            for (j, (_, initial)) in self.sems.iter().enumerate() {
                for _ in 0..*initial {
                    a.li(Reg::T0, j as i32);
                    a.hw_sem_give(Reg::Zero, Reg::T0);
                }
            }
        }
        a.li(
            Reg::T0,
            (csr::MIP_MTIP | csr::MIP_MSIP | csr::MIP_MEIP) as i32,
        );
        a.csrw(csr::MIE, Reg::T0);
        a.enable_interrupts();
        a.j(&format!("task_{}", self.tasks[0].name));

        // ---- kernel --------------------------------------------------
        gen_isr(
            &mut a,
            &mut lg,
            &IsrSpec {
                preset: self.preset,
                tick_period: self.tick_period,
                ext_sem_addr,
                trace_phases: self.trace_phases,
                probe: self.probe,
                ipi: self.ipi,
                protect: self.protect.then_some(ProtectSpec {
                    n_tasks: n,
                    kill: !self.preset.has_sched(),
                }),
            },
        );
        gen_syscalls(&mut a, &mut lg, self.preset, self.probe);

        // ---- task bodies ----------------------------------------------
        let specs = std::mem::take(&mut self.tasks);
        let mut task_names = Vec::with_capacity(n);
        for spec in specs {
            let label = format!("task_{}", spec.name);
            a.label(&label);
            let mut ctx = TaskCtx {
                asm: &mut a,
                lg: &mut lg,
                layout,
                sem_map: &sem_map,
                hw_sync,
                probe: self.probe,
            };
            (spec.body)(&mut ctx);
            a.j(&label);
            task_names.push((spec.name, spec.prio));
        }

        let program = a.finish()?;

        // ---- initial data image ---------------------------------------
        let mut data: Vec<(u32, u32)> = Vec::new();
        data.push((KernelLayout::CURRENT_TCB, layout.tcb_addr(0)));
        for (i, (name, prio)) in task_names.iter().enumerate() {
            let tcb_addr = layout.tcb_addr(i);
            data.push((KernelLayout::lookup_addr(i), tcb_addr));
            data.push((tcb_addr.wrapping_add(tcb::ID as u32), i as u32));
            data.push((tcb_addr.wrapping_add(tcb::PRIO as u32), u32::from(*prio)));
            if i == 0 {
                continue; // the boot task is live, no saved context
            }
            let entry = program.symbols.addr(&format!("task_{name}"));
            let stack_top = layout.stack_top(i);
            if self.preset.has_store() {
                // Fixed context region (§4.2 (3)).
                let id = i as u32;
                data.push((ctx_word_addr(id, ctx_index_of(Reg::Sp)), stack_top));
                data.push((ctx_word_addr(id, CTX_MSTATUS_IDX), INITIAL_MSTATUS));
                data.push((ctx_word_addr(id, CTX_MEPC_IDX), entry));
            } else {
                // Stack-resident frame (Fig. 4 (a)); CV32RT uses its
                // rearranged 128-byte frame.
                let cv32rt = self.preset == Preset::Cv32rt;
                let frame = stack_top - crate::isr::frame_bytes(cv32rt);
                let off = |w: usize| crate::isr::frame_word_off(w, cv32rt) as u32;
                data.push((tcb_addr.wrapping_add(tcb::SAVED_SP as u32), frame));
                data.push((frame + off(ctx_index_of(Reg::Sp)), stack_top));
                data.push((frame + off(CTX_MSTATUS_IDX), INITIAL_MSTATUS));
                data.push((frame + off(CTX_MEPC_IDX), entry));
            }
        }
        if !self.preset.has_sched() {
            // Software ready queues: ids ascending per priority, with the
            // boot task moved behind its peers (it is "running").
            for prio in 0..NUM_PRIOS {
                let mut ids: Vec<usize> = (0..n)
                    .filter(|&i| task_names[i].1 as usize == prio)
                    .collect();
                if let Some(pos) = ids.iter().position(|&i| i == 0) {
                    let id0 = ids.remove(pos);
                    ids.push(id0);
                }
                if ids.is_empty() {
                    continue;
                }
                data.push((KernelLayout::ready_head_addr(prio), layout.tcb_addr(ids[0])));
                data.push((
                    KernelLayout::READY_TAIL + (prio as u32) * 4,
                    layout.tcb_addr(*ids.last().expect("non-empty")),
                ));
                for w in ids.windows(2) {
                    data.push((
                        layout.tcb_addr(w[0]).wrapping_add(tcb::NEXT as u32),
                        layout.tcb_addr(w[1]),
                    ));
                }
            }
        }
        if !hw_sync {
            for (j, (_, initial)) in self.sems.iter().enumerate() {
                if *initial != 0 {
                    data.push((layout.sem_addr(j), *initial));
                }
            }
        }
        if self.protect {
            // Plant the canaries and the expected TCB checksum; the
            // watchdog counter starts at DMEM's zero default.
            for i in 0..n {
                data.push((canary_addr(i), CANARY_MAGIC));
            }
            let prios: Vec<u32> = task_names.iter().map(|(_, p)| u32::from(*p)).collect();
            data.push((KernelLayout::TCB_CHECKSUM, tcb_checksum(&prios)));
        }

        Ok(GuestImage {
            program,
            data,
            preset: self.preset,
            layout,
            tick_period: self.tick_period,
            hw_list_len: self.hw_list_len,
            task_names,
            sem_names: self.sems.iter().map(|(s, _)| s.clone()).collect(),
        })
    }
}

/// A bootable guest image: program text plus initial data words.
#[derive(Debug, Clone)]
pub struct GuestImage {
    /// The assembled kernel + tasks.
    pub program: Program,
    /// `(address, value)` pairs to write into DMEM before boot.
    pub data: Vec<(u32, u32)>,
    /// The preset the image was built for.
    pub preset: Preset,
    /// The data layout used.
    pub layout: KernelLayout,
    /// Timer tick period in cycles.
    pub tick_period: u32,
    /// Hardware ready/delay list capacity the kernel was built for.
    pub hw_list_len: usize,
    /// `(name, priority)` per task id (the idle task is last).
    pub task_names: Vec<(String, u8)>,
    /// Semaphore names in declaration order.
    pub sem_names: Vec<String>,
}

impl GuestImage {
    /// Installs the image into a [`System`] (text, data, tick period and,
    /// on presets with hardware scheduling, the unit's list capacity).
    ///
    /// # Panics
    ///
    /// Panics if the system was built for a different preset.
    pub fn install(&self, sys: &mut System) {
        assert_eq!(
            sys.preset(),
            self.preset,
            "image built for {} but system runs {}",
            self.preset,
            sys.preset()
        );
        sys.load_program(&self.program);
        for (addr, value) in &self.data {
            sys.platform.dmem.write_word(*addr, *value);
        }
        sys.set_timer_period(self.tick_period);
        if self.preset.has_sched() {
            sys.set_unit_list_len(self.hw_list_len);
        }
    }

    /// Task id of the named task.
    pub fn task_id(&self, name: &str) -> Option<usize> {
        self.task_names.iter().position(|(n, _)| n == name)
    }

    /// Total instruction count of the image (diagnostics).
    pub fn text_words(&self) -> usize {
        self.program.words.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn build_vanilla_two_tasks() {
        let mut k = KernelBuilder::new(Preset::Vanilla);
        k.task("a", 5, |t| t.yield_now());
        k.task("b", 5, |t| t.yield_now());
        let img = k.build().expect("builds");
        assert_eq!(img.task_names.len(), 3); // a, b, idle
        assert_eq!(img.task_id("idle"), Some(2));
        assert!(img.text_words() > 100);
    }

    #[test]
    fn idle_priority_is_reserved() {
        let mut k = KernelBuilder::new(Preset::Vanilla);
        k.task("bad", 0, |_| {});
        assert!(matches!(k.build(), Err(KernelError::BadPriority(_, 0))));
    }

    #[test]
    fn duplicate_names_rejected() {
        let mut k = KernelBuilder::new(Preset::Vanilla);
        k.task("x", 1, |_| {});
        k.task("x", 2, |_| {});
        assert!(matches!(k.build(), Err(KernelError::DuplicateName(_))));
    }

    #[test]
    fn hw_sched_task_capacity() {
        let mut k = KernelBuilder::new(Preset::Slt);
        for i in 0..8 {
            k.task(&format!("t{i}"), 1, |_| {});
        }
        // 8 user tasks + idle = 9 > 8 hardware slots.
        assert!(matches!(k.build(), Err(KernelError::TooManyTasks(9))));
    }

    #[test]
    fn hw_list_len_must_fit_the_unit_on_scheduling_presets() {
        let build = |preset: Preset, len: usize| {
            let mut k = KernelBuilder::new(preset);
            k.hw_list_len(len).task("a", 1, |_| {});
            k.build().map(|img| img.hw_list_len)
        };
        for len in [0, 65] {
            assert!(matches!(build(Preset::T, len), Err(KernelError::BadListLen(l)) if l == len));
            // Without hardware lists the capacity is never used.
            assert!(build(Preset::Sl, len).is_ok());
        }
        assert_eq!(build(Preset::Slt, 64).ok(), Some(64));
    }

    #[test]
    fn no_tasks_is_an_error() {
        assert!(matches!(
            KernelBuilder::new(Preset::Vanilla).build(),
            Err(KernelError::NoTasks)
        ));
    }

    #[test]
    fn images_differ_by_preset() {
        let build = |p: Preset| {
            let mut k = KernelBuilder::new(p);
            k.task("a", 5, |t| t.yield_now());
            k.task("b", 5, |t| t.yield_now());
            k.build().expect("builds").text_words()
        };
        // More hardware offloading = less software.
        assert!(build(Preset::Slt) < build(Preset::Vanilla));
    }
}
