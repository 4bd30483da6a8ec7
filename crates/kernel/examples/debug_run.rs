//! Ad-hoc debugging harness for kernel bring-up (not part of the test
//! suite). Run with: cargo run -p freertos-lite --example debug_run <preset>

use freertos_lite::KernelBuilder;
use rtosunit::layout::DMEM_BASE;
use rtosunit::{Preset, System};
use rvsim_cores::CoreKind;
use rvsim_isa::Reg;
use std::collections::VecDeque;

const SCRATCH: u32 = DMEM_BASE + 0x800;
/// Retired instructions kept in the log printed at the end.
const RECENT: usize = 64;

fn main() {
    let arg = std::env::args().nth(1).unwrap_or_else(|| "SL".into());
    let preset = match arg.as_str() {
        "vanilla" => Preset::Vanilla,
        "CV32RT" => Preset::Cv32rt,
        "S" => Preset::S,
        "SL" => Preset::Sl,
        "T" => Preset::T,
        "ST" => Preset::St,
        "SLT" => Preset::Slt,
        "SDLO" => Preset::Sdlo,
        "SDLOT" => Preset::Sdlot,
        "SPLIT" => Preset::Split,
        other => panic!("unknown preset {other}"),
    };
    let mut k = KernelBuilder::new(preset);
    k.tick_period(3000);
    k.task("a", 5, |t| {
        let a = t.asm_mut();
        a.li(Reg::S2, SCRATCH as i32);
        a.lw(Reg::S3, 0, Reg::S2);
        a.addi(Reg::S3, Reg::S3, 1);
        a.sw(Reg::S3, 0, Reg::S2);
        t.yield_now();
    });
    k.task("b", 5, |t| {
        let a = t.asm_mut();
        a.li(Reg::S2, (SCRATCH + 4) as i32);
        a.lw(Reg::S3, 0, Reg::S2);
        a.addi(Reg::S3, Reg::S3, 1);
        a.sw(Reg::S3, 0, Reg::S2);
        t.yield_now();
    });
    let img = k.build().expect("builds");
    println!("text words: {}", img.text_words());
    for (name, addr) in [
        ("_task_a", img.program.symbols.get("task_a").unwrap_or(0)),
        ("_task_b", img.program.symbols.get("task_b").unwrap_or(0)),
        ("isr", img.program.symbols.get("isr").unwrap_or(0)),
    ] {
        println!("{name}: {addr:#x}");
    }
    let mut sys = System::new(CoreKind::Cv32e40p, preset);
    img.install(&mut sys);
    // The last `RECENT` retired `(cycle, pc)` pairs, oldest first. A
    // cycle that retires two instructions (a dual-issue pair) retires
    // the one at `pc` and the one after it.
    let mut recent: VecDeque<(u64, u32)> = VecDeque::with_capacity(RECENT);
    for step in 0..30_000 {
        let (pc, retired) = (sys.core.state.pc, sys.core.retired());
        sys.step();
        for i in 0..sys.core.retired() - retired {
            if recent.len() == RECENT {
                recent.pop_front();
            }
            recent.push_back((sys.core.cycle(), pc.wrapping_add(4 * i as u32)));
        }
        if sys.halted() {
            println!("HALTED at cycle {step}");
            break;
        }
    }
    println!("cycle: {}", sys.platform.cycle());
    println!("pc: {:#010x}", sys.core.state.pc);
    println!("records: {}", sys.records().len());
    println!(
        "a={} b={}",
        sys.platform.dmem.read_word(SCRATCH),
        sys.platform.dmem.read_word(SCRATCH + 4)
    );
    if let Some(u) = sys.unit_stats() {
        println!("unit: {u:?}");
    }
    println!("recent pcs:");
    for (cyc, pc) in recent {
        let dis = sys.core.disassemble_at(pc).unwrap_or_default();
        println!("  {cyc:>8}  {pc:#010x}  {dis}");
    }
    for r in sys.records().iter().take(10) {
        println!(
            "switch: cause={:#x} trigger={} entry={} mret={} lat={}",
            r.cause,
            r.trigger_cycle,
            r.entry_cycle,
            r.mret_cycle,
            r.latency()
        );
    }
}
