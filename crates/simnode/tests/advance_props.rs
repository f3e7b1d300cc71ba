//! `SimNode::advance` writes inline registers by schema position, the
//! per-CPU blocks as one row per device (one row for all the CPUs that
//! run in lockstep), through an exact floor that makes no library call.
//! This is the acceptance test of that path:
//! `ParentNode` below is the node as it was before it — a
//! `BTreeMap<DeviceType, Vec<ParentDevice>>` written through the by-name
//! `add` / `set_gauge` — and `ParentDevice`, `Counter` and `FracAccum`
//! are the parent's register path, with `f64::floor`, copied here so that
//! the oracle shares no code with what it checks. Over random
//! topologies, demand sequences and faults, every register (total,
//! wrapped reading, and the fractional carry's bit pattern), the frozen
//! flags and the process table of the two must be identical after every
//! step, and the run must take every lockstep transition (as the parent's
//! registers show it); and a single register add must equal the parent's
//! step bit for bit over random and edge amounts, except that a total
//! that would pass `u64::MAX` stays there, where the parent wrapped.
//!
//! The vendored proptest is primitive-only, so raw draws from its
//! `TestRng` are decoded into operations inside the test body.

use proptest::prelude::TestRng;
use std::collections::BTreeMap;
use tacc_simnode::counter::Register;
use tacc_simnode::node::ProcessInfo;
use tacc_simnode::schema::{DeviceType, EventKind, Schema};
use tacc_simnode::topology::{CpuArch, NodeTopology};
use tacc_simnode::workload::{LustreDemand, NodeDemand};
use tacc_simnode::{SimDuration, SimNode};

/// Cases per property (more with `PROPTEST_CASES`).
const CASES: u64 = 256;

/// The parent's fixed-width counter.
#[derive(Clone, Debug)]
struct Counter {
    width: u32,
    total: u64,
}

impl Counter {
    fn new(width: u32) -> Self {
        assert!(
            (1..=64).contains(&width),
            "counter width {width} out of range"
        );
        Counter { width, total: 0 }
    }

    fn mask(&self) -> u64 {
        if self.width == 64 {
            u64::MAX
        } else {
            (1u64 << self.width) - 1
        }
    }

    fn add(&mut self, delta: u64) {
        self.total = self.total.wrapping_add(delta);
    }

    fn read(&self) -> u64 {
        self.total & self.mask()
    }

    fn reset(&mut self) {
        self.total = 0;
    }
}

/// The parent's fractional accumulator, without its debug check on the
/// amount (the register proptest feeds it +∞).
#[derive(Clone, Debug, Default)]
struct FracAccum {
    carry: f64,
}

impl FracAccum {
    fn step(&mut self, amount: f64) -> u64 {
        let total = self.carry + amount.max(0.0);
        let whole = total.floor();
        self.carry = total - whole;
        whole.min(u64::MAX as f64) as u64
    }
}

/// The parent's by-name device.
#[derive(Clone, Debug)]
struct ParentDevice {
    instance: String,
    schema: Schema,
    counters: Vec<Counter>,
    fracs: Vec<FracAccum>,
    frozen: bool,
}

impl ParentDevice {
    fn new(dev_type: DeviceType, instance: impl Into<String>, arch: CpuArch) -> Self {
        let schema = dev_type.schema(arch);
        let counters = schema
            .events
            .iter()
            .map(|e| Counter::new(e.width))
            .collect();
        let fracs = vec![FracAccum::default(); schema.len()];
        ParentDevice {
            instance: instance.into(),
            schema,
            counters,
            fracs,
            frozen: false,
        }
    }

    fn set_frozen(&mut self, frozen: bool) {
        self.frozen = frozen;
    }

    fn add(&mut self, event: &str, amount: f64) {
        if self.frozen {
            return;
        }
        let idx = self.schema.index_of(event).expect("event exists");
        let whole = self.fracs[idx].step(amount);
        self.counters[idx].add(whole);
    }

    fn set_gauge(&mut self, event: &str, value: u64) {
        let idx = self.schema.index_of(event).expect("event exists");
        assert_eq!(self.schema.events[idx].kind, EventKind::Gauge);
        if self.frozen {
            return;
        }
        self.counters[idx].reset();
        self.counters[idx].add(value);
    }

    fn reset(&mut self) {
        for c in &mut self.counters {
            c.reset();
        }
        for f in &mut self.fracs {
            *f = FracAccum::default();
        }
        self.frozen = false;
    }
}

/// The parent commit's node, reduced to the state `advance` touches.
struct ParentNode {
    topology: NodeTopology,
    devices: BTreeMap<DeviceType, Vec<ParentDevice>>,
    processes: Vec<ProcessInfo>,
    next_pid: u32,
    crashed: bool,
    boot_count: u32,
}

impl ParentNode {
    fn new(topology: NodeTopology) -> Self {
        let arch = topology.arch;
        let mut devices: BTreeMap<DeviceType, Vec<ParentDevice>> = BTreeMap::new();
        let per_cpu = |dt: DeviceType| -> Vec<ParentDevice> {
            (0..topology.n_cpus())
                .map(|c| ParentDevice::new(dt, c.to_string(), arch))
                .collect()
        };
        let per_socket = |dt: DeviceType| -> Vec<ParentDevice> {
            (0..topology.sockets)
                .map(|s| ParentDevice::new(dt, s.to_string(), arch))
                .collect()
        };
        devices.insert(DeviceType::Cpu, per_cpu(DeviceType::Cpu));
        devices.insert(DeviceType::Cpustat, per_cpu(DeviceType::Cpustat));
        devices.insert(DeviceType::Imc, per_socket(DeviceType::Imc));
        devices.insert(DeviceType::Qpi, per_socket(DeviceType::Qpi));
        devices.insert(DeviceType::Cbo, per_socket(DeviceType::Cbo));
        if arch.has_rapl() {
            devices.insert(DeviceType::Rapl, per_socket(DeviceType::Rapl));
        }
        let mut mems = per_socket(DeviceType::Mem);
        let mem_per_socket_kib = topology.memory_bytes / 1024 / topology.sockets as u64;
        for m in &mut mems {
            m.set_gauge("MemTotal", mem_per_socket_kib);
        }
        devices.insert(DeviceType::Mem, mems);
        if topology.has_infiniband {
            devices.insert(
                DeviceType::Ib,
                vec![ParentDevice::new(DeviceType::Ib, "mlx4_0/1", arch)],
            );
        }
        devices.insert(
            DeviceType::Net,
            vec![ParentDevice::new(DeviceType::Net, "eth0", arch)],
        );
        if !topology.lustre_filesystems.is_empty() {
            let per_fs = |dt: DeviceType| -> Vec<ParentDevice> {
                topology
                    .lustre_filesystems
                    .iter()
                    .map(|fs| ParentDevice::new(dt, fs.clone(), arch))
                    .collect()
            };
            devices.insert(DeviceType::Llite, per_fs(DeviceType::Llite));
            devices.insert(DeviceType::Mdc, per_fs(DeviceType::Mdc));
            devices.insert(DeviceType::Osc, per_fs(DeviceType::Osc));
            devices.insert(
                DeviceType::Lnet,
                vec![ParentDevice::new(DeviceType::Lnet, "lnet", arch)],
            );
        }
        if topology.mic_cards > 0 {
            devices.insert(
                DeviceType::Mic,
                (0..topology.mic_cards)
                    .map(|i| ParentDevice::new(DeviceType::Mic, format!("mic{i}"), arch))
                    .collect(),
            );
        }
        ParentNode {
            topology,
            devices,
            processes: Vec::new(),
            next_pid: 1000,
            crashed: false,
            boot_count: 1,
        }
    }

    fn devices(&self, dt: DeviceType) -> &[ParentDevice] {
        self.devices.get(&dt).map(Vec::as_slice).unwrap_or(&[])
    }

    fn crash(&mut self) {
        self.crashed = true;
        self.processes.clear();
    }

    fn reboot(&mut self) {
        for devs in self.devices.values_mut() {
            for d in devs {
                d.reset();
            }
        }
        let mem_per_socket_kib = self.topology.memory_bytes / 1024 / self.topology.sockets as u64;
        if let Some(mems) = self.devices.get_mut(&DeviceType::Mem) {
            for m in mems {
                m.set_gauge("MemTotal", mem_per_socket_kib);
            }
        }
        self.processes.clear();
        self.crashed = false;
        self.boot_count += 1;
    }

    fn spawn_process(&mut self, comm: &str, uid: u32, threads: u32, cpus_allowed: u64) -> u32 {
        let pid = self.next_pid;
        self.next_pid += 1;
        self.processes.push(ProcessInfo {
            pid,
            uid,
            comm: comm.to_string(),
            vm_size_kib: 40 << 10, // ~40 MB at startup
            vm_peak_kib: 40 << 10,
            vm_rss_kib: 8 << 10,
            vm_hwm_kib: 8 << 10,
            vm_lck_kib: 0,
            vm_data_kib: 16 << 10,
            vm_stk_kib: 8 << 10,
            vm_exe_kib: 4 << 10,
            threads,
            cpus_allowed,
            mems_allowed: (1u64 << self.topology.sockets) - 1,
            utime_jiffies: 0,
        });
        pid
    }

    fn end_process(&mut self, pid: u32) -> bool {
        let before = self.processes.len();
        self.processes.retain(|p| p.pid != pid);
        self.processes.len() != before
    }

    fn end_processes_of(&mut self, uid: u32) {
        self.processes.retain(|p| p.uid != uid);
    }

    fn set_frozen(&mut self, dt: DeviceType, instance: &str, frozen: bool) -> usize {
        let Some(devs) = self.devices.get_mut(&dt) else {
            return 0;
        };
        let mut n = 0;
        for d in devs {
            let matches = d.instance == instance
                || (d.instance.len() > instance.len()
                    && d.instance.starts_with(instance)
                    && d.instance.as_bytes()[instance.len()] == b'/');
            if matches {
                d.set_frozen(frozen);
                n += 1;
            }
        }
        n
    }

    /// The parent's `SimNode::advance`, verbatim.
    fn advance(&mut self, dt: SimDuration, demand: &NodeDemand) {
        if self.crashed || dt.is_zero() {
            return;
        }
        let dt_s = dt.as_secs_f64();
        let topo = self.topology.clone();
        let arch = topo.arch;

        let active = demand.active_cores.min(topo.n_cores());
        let user = demand.cpu_user_frac;
        let sys = demand.cpu_sys_frac;
        let iow = demand.cpu_iowait_frac;

        // --- Core counters + /proc/stat accounting, per logical CPU ---
        // Active cores are the first `active` physical cores; jobs run one
        // hardware thread per core (typical HPC pinning).
        let clock = arch.clock_hz() as f64;
        // Cycles accrue whenever the core is busy (user or system); the
        // demanded CPI relates retired instructions to those cycles, so
        // metric-side CPI recovers the demand exactly.
        let cycles_per_active_cpu = clock * (user + sys) * dt_s;
        let inst_per_active_cpu = if active > 0 {
            cycles_per_active_cpu / demand.cpi
        } else {
            0.0
        };
        // FP instruction decomposition: flops = N*((1-v) + v*w), where N is
        // FP instructions/s and w the vector width in FLOPs.
        let w = arch.vector_width_flops() as f64;
        let v = demand.vector_frac;
        let fp_inst_rate = if demand.flops_per_sec > 0.0 {
            demand.flops_per_sec / ((1.0 - v) + v * w)
        } else {
            0.0
        };
        let fp_scalar_node = fp_inst_rate * (1.0 - v) * dt_s;
        let fp_vector_node = fp_inst_rate * v * dt_s;
        {
            let cpus = self.devices.get_mut(&DeviceType::Cpu).expect("cpu devs");
            for (c, dev) in cpus.iter_mut().enumerate() {
                let core_active = topo.core_of_cpu(c) < active && c < topo.n_cores();
                if !core_active {
                    continue;
                }
                let an = active as f64;
                dev.add("FIXED_CTR0", inst_per_active_cpu);
                dev.add("FIXED_CTR1", clock * (user + sys) * dt_s);
                dev.add("FIXED_CTR2", clock * (user + sys) * dt_s);
                dev.add("FP_SCALAR", fp_scalar_node / an);
                dev.add("FP_VECTOR", fp_vector_node / an);
                let loads = inst_per_active_cpu * demand.loads_per_inst;
                dev.add("LOAD_ALL", loads);
                dev.add("LOAD_L1_HIT", loads * demand.l1_hit_frac);
                if dev.schema.index_of("LOAD_L2_HIT").is_some() {
                    dev.add("LOAD_L2_HIT", loads * demand.l2_hit_frac);
                    dev.add("LOAD_LLC_HIT", loads * demand.llc_hit_frac);
                }
            }
        }
        {
            let stats = self.devices.get_mut(&DeviceType::Cpustat).expect("cpustat");
            let jiffies = dt_s * 100.0;
            for (c, dev) in stats.iter_mut().enumerate() {
                let core_active = topo.core_of_cpu(c) < active && c < topo.n_cores();
                if core_active {
                    dev.add("user", jiffies * user);
                    dev.add("system", jiffies * sys);
                    dev.add("iowait", jiffies * iow);
                    dev.add("idle", jiffies * (1.0 - user - sys - iow).max(0.0));
                } else {
                    dev.add("system", jiffies * 0.002);
                    dev.add("idle", jiffies * 0.998);
                }
            }
        }

        // --- Uncore: memory controller, QPI, LLC boxes (per socket) ---
        let sockets = topo.sockets as f64;
        let bytes = demand.mem_bw_bytes_per_sec * dt_s;
        let cas_total = bytes / 64.0; // one CAS per 64 B cache line
        {
            let imcs = self.devices.get_mut(&DeviceType::Imc).expect("imc");
            for dev in imcs.iter_mut() {
                dev.add("CAS_READS", cas_total * (2.0 / 3.0) / sockets);
                dev.add("CAS_WRITES", cas_total * (1.0 / 3.0) / sockets);
                dev.add("CYCLES", clock * dt_s);
            }
        }
        {
            // Cross-socket traffic modelled as a fixed share of memory
            // traffic; QPI moves 8-byte flits.
            let qpis = self.devices.get_mut(&DeviceType::Qpi).expect("qpi");
            let data_flits = bytes * 0.25 / 8.0 / sockets;
            for dev in qpis.iter_mut() {
                dev.add("G0_DATA_FLITS", data_flits);
                dev.add("G0_NON_DATA_FLITS", data_flits * 0.5);
            }
        }
        {
            let total_loads = inst_per_active_cpu * demand.loads_per_inst * active as f64;
            let lookups = total_loads * (1.0 - demand.l1_hit_frac - demand.l2_hit_frac).max(0.0);
            let hits = total_loads * demand.llc_hit_frac;
            let cbos = self.devices.get_mut(&DeviceType::Cbo).expect("cbo");
            for dev in cbos.iter_mut() {
                dev.add("LLC_LOOKUP", lookups / sockets);
                dev.add("LLC_MISS", (lookups - hits).max(0.0) / sockets);
            }
        }

        // --- RAPL energy (per socket) ---
        if let Some(rapls) = self.devices.get_mut(&DeviceType::Rapl) {
            // Simple linear power model per socket.
            let busy = (user + sys) * active as f64 / topo.n_cores() as f64;
            let pkg_w = 40.0 + 75.0 * busy;
            let pp0_w = 25.0 + 65.0 * busy;
            let bw_frac = (demand.mem_bw_bytes_per_sec / 5.0e10).min(1.0);
            let dram_w = 6.0 + 14.0 * bw_frac;
            let joules_to_units = 16384.0; // 2^14 units per joule
            for dev in rapls.iter_mut() {
                dev.add("MSR_PKG_ENERGY_STATUS", pkg_w * dt_s * joules_to_units);
                dev.add("MSR_PP0_ENERGY_STATUS", pp0_w * dt_s * joules_to_units);
                dev.add("MSR_DRAM_ENERGY_STATUS", dram_w * dt_s * joules_to_units);
            }
        }

        // --- Memory gauges ---
        {
            let used_kib = (demand.mem_used_bytes / 1024).max(512 << 10);
            let mems = self.devices.get_mut(&DeviceType::Mem).expect("mem");
            let per_socket = used_kib / topo.sockets as u64;
            for dev in mems.iter_mut() {
                dev.set_gauge("MemUsed", per_socket);
                dev.set_gauge("FilePages", per_socket / 5);
                dev.set_gauge("AnonPages", per_socket * 7 / 10);
            }
        }

        // --- Networks ---
        if let Some(ibs) = self.devices.get_mut(&DeviceType::Ib) {
            let ib_bytes = demand.ib_bytes_per_sec * dt_s;
            let pkts = ib_bytes / demand.ib_pkt_size.max(16.0);
            for dev in ibs.iter_mut() {
                // IB data counters count 4-byte words.
                dev.add("port_xmit_data", ib_bytes / 4.0);
                dev.add("port_rcv_data", ib_bytes / 4.0);
                dev.add("port_xmit_pkts", pkts);
                dev.add("port_rcv_pkts", pkts);
            }
        }
        {
            let nets = self.devices.get_mut(&DeviceType::Net).expect("net");
            let gbytes = demand.gige_bytes_per_sec * dt_s;
            for dev in nets.iter_mut() {
                dev.add("rx_bytes", gbytes / 2.0);
                dev.add("tx_bytes", gbytes / 2.0);
                dev.add("rx_packets", gbytes / 2.0 / 1448.0);
                dev.add("tx_packets", gbytes / 2.0 / 1448.0);
            }
        }

        // --- Lustre ---
        let n_fs = self.devices(DeviceType::Llite).len();
        let mut lnet_tx = 0.0f64;
        let mut lnet_rx = 0.0f64;
        let mut lnet_msgs = 0.0f64;
        for fs_idx in 0..n_fs {
            let ld = match demand.lustre.get(fs_idx) {
                Some(ld) => ld.clone(),
                None => continue,
            };
            {
                let llites = self.devices.get_mut(&DeviceType::Llite).expect("llite");
                let dev = &mut llites[fs_idx];
                dev.add("read_bytes", ld.read_bytes_per_sec * dt_s);
                dev.add("write_bytes", ld.write_bytes_per_sec * dt_s);
                dev.add("open", ld.opens_per_sec * dt_s);
                dev.add("close", ld.opens_per_sec * dt_s);
                dev.add("getattr", ld.getattr_per_sec * dt_s);
                dev.add("statfs", 0.01 * dt_s);
                dev.add("seek", ld.osc_reqs_per_sec * 0.5 * dt_s);
                dev.add("fsync", 0.001 * dt_s);
            }
            {
                let mdcs = self.devices.get_mut(&DeviceType::Mdc).expect("mdc");
                let dev = &mut mdcs[fs_idx];
                let reqs = ld.mdc_reqs_per_sec * dt_s;
                dev.add("reqs", reqs);
                dev.add("wait", reqs * ld.mdc_wait_us);
            }
            {
                let oscs = self.devices.get_mut(&DeviceType::Osc).expect("osc");
                let dev = &mut oscs[fs_idx];
                let reqs = ld.osc_reqs_per_sec * dt_s;
                dev.add("reqs", reqs);
                dev.add("wait", reqs * ld.osc_wait_us);
                dev.add("read_bytes", ld.read_bytes_per_sec * dt_s);
                dev.add("write_bytes", ld.write_bytes_per_sec * dt_s);
            }
            lnet_tx += ld.write_bytes_per_sec * dt_s;
            lnet_rx += ld.read_bytes_per_sec * dt_s;
            lnet_msgs += (ld.mdc_reqs_per_sec + ld.osc_reqs_per_sec) * dt_s;
        }
        if let Some(lnets) = self.devices.get_mut(&DeviceType::Lnet) {
            for dev in lnets.iter_mut() {
                // Metadata RPCs move small (~1 KiB) messages.
                dev.add("tx_bytes", lnet_tx + lnet_msgs * 512.0);
                dev.add("rx_bytes", lnet_rx + lnet_msgs * 512.0);
                dev.add("tx_msgs", lnet_msgs + (lnet_tx / (1 << 20) as f64));
                dev.add("rx_msgs", lnet_msgs + (lnet_rx / (1 << 20) as f64));
            }
        }

        // --- Xeon Phi ---
        if let Some(mics) = self.devices.get_mut(&DeviceType::Mic) {
            // KNC SE10P: 61 cores × 4 hardware threads = 244 logical CPUs.
            let mic_cpus = 244.0;
            let jiffies = dt_s * 100.0 * mic_cpus;
            for dev in mics.iter_mut() {
                dev.add("user_sum", jiffies * demand.mic_user_frac);
                dev.add("sys_sum", jiffies * 0.005);
                dev.add(
                    "idle_sum",
                    jiffies * (1.0 - demand.mic_user_frac - 0.005).max(0.0),
                );
            }
        }

        // --- Process table ---
        if !self.processes.is_empty() {
            let n_app = self
                .processes
                .iter()
                .filter(|p| p.uid >= 1000)
                .count()
                .max(1) as f64;
            let rss_each = (demand.mem_used_bytes / 1024) / n_app as u64;
            let cpu_jiffies_each = dt_s * 100.0 * user * active as f64 / n_app;
            for p in &mut self.processes {
                if p.uid < 1000 {
                    continue; // system daemons stay tiny
                }
                p.vm_rss_kib = rss_each;
                p.vm_hwm_kib = p.vm_hwm_kib.max(rss_each);
                p.vm_size_kib = rss_each + (64 << 10);
                p.vm_peak_kib = p.vm_peak_kib.max(p.vm_size_kib);
                p.vm_data_kib = rss_each * 8 / 10;
                p.utime_jiffies += cpu_jiffies_each as u64;
            }
        }
    }
}

/// The topologies the rewrite must agree on: Stampede, Lonestar 5
/// (Haswell, HT), Nehalem and Westmere nodes (no RAPL, the 7-event `cpu`
/// schema), a node without Lustre, IB or MIC, a 4-socket largemem node,
/// and one with three mounts and two Phi cards.
fn topology(rng: &mut TestRng) -> NodeTopology {
    let bare = NodeTopology {
        has_infiniband: false,
        mic_cards: 0,
        lustre_filesystems: vec![],
        ..NodeTopology::stampede()
    };
    let nehalem = NodeTopology {
        arch: CpuArch::Nehalem,
        sockets: 2,
        cores_per_socket: 4,
        threads_per_core: 2,
        memory_bytes: 24 << 30,
        has_infiniband: true,
        mic_cards: 0,
        lustre_filesystems: vec!["scratch".into(), "work".into()],
    };
    let westmere = NodeTopology {
        arch: CpuArch::Westmere,
        cores_per_socket: 6,
        threads_per_core: 1,
        has_infiniband: false,
        lustre_filesystems: vec!["scratch".into()],
        ..nehalem.clone()
    };
    let wide = NodeTopology {
        mic_cards: 2,
        lustre_filesystems: vec!["scratch".into(), "work".into(), "home".into()],
        ..NodeTopology::stampede()
    };
    match rng.below(8) {
        0 => NodeTopology::stampede(),
        1 => NodeTopology::lonestar5(),
        2 => nehalem,
        3 => westmere,
        4 => bare,
        5 => NodeTopology::stampede_largemem(),
        6 => NodeTopology::maverick(),
        _ => wide,
    }
}

/// `x` with probability 2/3, else 0.
fn sometimes(rng: &mut TestRng, x: f64) -> f64 {
    if rng.below(3) == 0 {
        0.0
    } else {
        x
    }
}

/// A random demand: idle, or busy with `active_cores` up to past every
/// topology's core count, fractions that may over-commit, and a Lustre
/// vector shorter or longer than the mounts.
fn demand(rng: &mut TestRng) -> NodeDemand {
    if rng.below(6) == 0 {
        return NodeDemand::idle();
    }
    let mut u = || rng.unit_f64();
    let d = NodeDemand {
        active_cores: 0,
        cpu_user_frac: u(),
        cpu_sys_frac: u() * 0.2,
        cpu_iowait_frac: u() * 0.1,
        cpi: 0.25 + u() * 3.0,
        flops_per_sec: 0.0,
        vector_frac: u(),
        loads_per_inst: u() * 0.8,
        l1_hit_frac: u(),
        l2_hit_frac: u() * 0.2,
        llc_hit_frac: u() * 0.1,
        mem_bw_bytes_per_sec: u() * 6e10,
        mem_used_bytes: 0,
        ib_bytes_per_sec: 0.0,
        ib_pkt_size: u() * 4096.0,
        gige_bytes_per_sec: u() * 1e8,
        lustre: Vec::new(),
        mic_user_frac: u(),
        n_processes: 0,
        threads_per_process: 1,
    };
    let lustre = (0..rng.below(5))
        .map(|_| {
            let mut u = || rng.unit_f64();
            LustreDemand {
                mdc_reqs_per_sec: u() * 1e3,
                mdc_wait_us: u() * 5e3,
                osc_reqs_per_sec: u() * 1e3,
                osc_wait_us: u() * 1e4,
                opens_per_sec: u() * 50.0,
                getattr_per_sec: u() * 200.0,
                read_bytes_per_sec: u() * 1e9,
                write_bytes_per_sec: u() * 1e9,
            }
        })
        .collect();
    let flops = rng.unit_f64() * 2e11;
    let ib = rng.unit_f64() * 5e9;
    NodeDemand {
        active_cores: rng.below(64) as usize,
        flops_per_sec: sometimes(rng, flops),
        ib_bytes_per_sec: sometimes(rng, ib),
        mem_used_bytes: rng.below(1 << 37),
        lustre,
        ..d
    }
}

/// A step length: zero one time in eight, up to 20 minutes, or a day
/// (which wraps the 32-bit RAPL registers).
fn step(rng: &mut TestRng) -> SimDuration {
    match rng.below(8) {
        0 => SimDuration::from_secs(0),
        1 => SimDuration::from_secs(86_400),
        _ => SimDuration::from_millis(rng.below(1_200_001)),
    }
}

/// Every observable register, flag and carry of `real` equals `parent`'s,
/// each instance read through `SimNode::device` and named by
/// `SimNode::instance_name`.
fn same_state(real: &SimNode, parent: &ParentNode) -> Result<(), String> {
    if real.is_crashed() != parent.crashed || real.boot_count() != parent.boot_count {
        return Err("crash state or boot count differs".into());
    }
    for dt in DeviceType::ALL {
        let b = parent.devices(dt);
        if real.device(dt, b.len()).is_some() || real.instance_name(dt, b.len()).is_some() {
            return Err(format!(
                "{dt}: more than the parent's {} instances",
                b.len()
            ));
        }
        for (i, y) in b.iter().enumerate() {
            let at = format!("{dt} {}", y.instance);
            let (Some(x), Some(name)) = (real.device(dt, i), real.instance_name(dt, i)) else {
                return Err(format!("{at}: no instance {i}"));
            };
            if name != y.instance || x.is_frozen() != y.frozen {
                return Err(format!("{at}: instance name or frozen flag differs"));
            }
            let regs = x.registers();
            if regs.len() != y.counters.len() {
                return Err(format!(
                    "{at}: {} registers, parent {}",
                    regs.len(),
                    y.counters.len()
                ));
            }
            for (i, ((reg, counter), frac)) in
                regs.iter().zip(&y.counters).zip(&y.fracs).enumerate()
            {
                if reg.total() != counter.total {
                    return Err(format!(
                        "{at} [{i}]: total {} != parent {}",
                        reg.total(),
                        counter.total
                    ));
                }
                if x.read_at(i) != Some(counter.read()) {
                    return Err(format!(
                        "{at} [{i}]: reading {:?} != parent {}",
                        x.read_at(i),
                        counter.read()
                    ));
                }
                if reg.carry().to_bits() != frac.carry.to_bits() {
                    return Err(format!(
                        "{at} [{i}]: carry {:e} != parent {:e}",
                        reg.carry(),
                        frac.carry
                    ));
                }
            }
        }
    }
    let (a, b) = (real.processes(), &parent.processes);
    if format!("{a:?}") != format!("{b:?}") {
        return Err(format!("process table: {a:?} != parent {b:?}"));
    }
    Ok(())
}

/// How many leading instances of `dt` hold instance 0's registers in the
/// parent — every total and carry, and the frozen flag too if `flags`.
/// With flags, that is the most CPUs that can step as one.
fn lockstep(parent: &ParentNode, dt: DeviceType, flags: bool) -> usize {
    let devs = parent.devices(dt);
    let Some(first) = devs.first() else {
        return 0;
    };
    let same = |d: &ParentDevice| {
        (!flags || d.frozen == first.frozen)
            && d.counters
                .iter()
                .zip(&first.counters)
                .all(|(a, b)| a.total == b.total)
            && d.fracs
                .iter()
                .zip(&first.fracs)
                .all(|(a, b)| a.carry.to_bits() == b.carry.to_bits())
    };
    devs.iter().take_while(|d| same(d)).count()
}

/// The lockstep transitions a run must take, as the parent sees them.
#[derive(Clone, Copy, Debug)]
enum Transition {
    /// A step adds one row to two or more CPUs in lockstep.
    Share,
    /// A step's active CPUs end inside the lockstep CPUs.
    Split,
    /// A CPU in lockstep is frozen.
    FreezeShared,
    /// A frozen CPU whose registers are still CPU 0's is thawed.
    ThawShared,
    /// A thawed CPU in lockstep is thawed again.
    NoOpThaw,
    /// A running node crashes.
    Crash,
    /// A node whose CPUs went out of lockstep reboots.
    Reshare,
}

const TRANSITIONS: usize = 7;

/// The transition `set_frozen(dt, inst, frozen)` makes, if any.
fn freeze_transition(
    parent: &ParentNode,
    dt: DeviceType,
    inst: &str,
    frozen: bool,
) -> Option<Transition> {
    if !matches!(dt, DeviceType::Cpu | DeviceType::Cpustat) {
        return None;
    }
    let group = lockstep(parent, dt, false);
    let k = inst
        .parse::<usize>()
        .ok()
        .filter(|&k| k < group && group >= 2)?;
    let was = parent.devices(dt).get(k)?.frozen;
    match (was, frozen) {
        (false, true) => Some(Transition::FreezeShared),
        (true, false) => Some(Transition::ThawShared),
        (false, false) => Some(Transition::NoOpThaw),
        (true, true) => None,
    }
}

/// The transition a step of `dt` with `d` makes, if any.
fn step_transition(parent: &ParentNode, dt: SimDuration, d: &NodeDemand) -> Option<Transition> {
    let group = lockstep(parent, DeviceType::Cpu, true);
    if parent.crashed || dt.is_zero() || group < 2 {
        return None;
    }
    let active = d.active_cores.min(parent.topology.n_cores());
    if active > 0 && active < group {
        Some(Transition::Split)
    } else {
        Some(Transition::Share)
    }
}

/// Freeze targets: CPU names (the first four), other exact names, an IB
/// port by its HCA prefix, and names that match nothing.
const INSTANCES: [&str; 12] = [
    "0", "1", "3", "17", "scratch", "work", "mlx4_0", "mlx4_0/1", "eth0", "lnet", "mic1", "bogus",
];

/// One random case: a topology and up to 32 operations, the state
/// compared after each; counts the lockstep transitions it took.
fn run_case(rng: &mut TestRng, seen: &mut [u64; TRANSITIONS]) -> Result<(), String> {
    let topo = topology(rng);
    let mut real = SimNode::new("c0-0", topo.clone());
    let mut parent = ParentNode::new(topo);
    same_state(&real, &parent).map_err(|e| format!("after new: {e}"))?;
    let mut last_frozen = None;
    for op in 0..1 + rng.below(32) {
        let (what, transition) = match rng.below(100) {
            0..=54 => {
                let (dt, d) = (step(rng), demand(rng));
                let t = step_transition(&parent, dt, &d);
                real.advance(dt, &d);
                parent.advance(dt, &d);
                ("advance", t)
            }
            55..=69 => {
                // Half the faults hit a CPU, and half the thaws the last
                // freeze, so that a CPU frozen out of lockstep is often
                // thawed before its registers move on.
                let frozen = rng.below(2) != 0;
                let (dt, inst) = match last_frozen {
                    Some(target) if !frozen && rng.below(2) == 0 => target,
                    _ if rng.below(2) == 0 => (
                        [DeviceType::Cpu, DeviceType::Cpustat][rng.below(2) as usize],
                        INSTANCES[rng.below(4) as usize],
                    ),
                    _ => (
                        DeviceType::ALL[rng.below(DeviceType::COUNT as u64) as usize],
                        INSTANCES[rng.below(INSTANCES.len() as u64) as usize],
                    ),
                };
                if frozen {
                    last_frozen = Some((dt, inst));
                }
                let t = freeze_transition(&parent, dt, inst, frozen);
                let n = real.set_frozen(dt, inst, frozen);
                if n != parent.set_frozen(dt, inst, frozen) {
                    return Err(format!("op {op}: set_frozen({dt}, {inst}) count differs"));
                }
                ("set_frozen", t)
            }
            70..=74 => {
                let t = (!parent.crashed).then_some(Transition::Crash);
                real.crash();
                parent.crash();
                ("crash", t)
            }
            75..=81 => {
                let cpus = parent.devices(DeviceType::Cpu).len();
                let split = lockstep(&parent, DeviceType::Cpu, true) < cpus;
                let t = split.then_some(Transition::Reshare);
                real.reboot();
                parent.reboot();
                ("reboot", t)
            }
            82..=91 => {
                let uid = if rng.below(4) == 0 {
                    rng.below(1000) as u32
                } else {
                    1000 + rng.below(60_000) as u32
                };
                let threads = 1 + rng.below(32) as u32;
                let mask = rng.next_u64();
                let pid = real.spawn_process("app.exe", uid, threads, mask);
                if pid != parent.spawn_process("app.exe", uid, threads, mask) {
                    return Err(format!("op {op}: spawn_process pid differs"));
                }
                ("spawn_process", None)
            }
            92..=96 => {
                let pid = 1000 + rng.below(12) as u32;
                if real.end_process(pid) != parent.end_process(pid) {
                    return Err(format!("op {op}: end_process({pid}) differs"));
                }
                ("end_process", None)
            }
            _ => {
                let uid = parent.processes.first().map_or(0, |p| p.uid);
                real.end_processes_of(uid);
                parent.end_processes_of(uid);
                ("end_processes_of", None)
            }
        };
        if let Some(t) = transition {
            seen[t as usize] += 1;
        }
        same_state(&real, &parent).map_err(|e| format!("op {op} ({what}): {e}"))?;
    }
    Ok(())
}

/// Every case agrees with the parent, and the run as a whole takes every
/// lockstep transition.
#[test]
fn positional_advance_is_bit_identical_to_the_by_name_parent() {
    let cases = proptest::case_count().max(CASES);
    let base = proptest::fnv1a("positional_advance_is_bit_identical_to_the_by_name_parent");
    let mut seen = [0u64; TRANSITIONS];
    for case in 0..cases {
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::seed_from_u64(seed);
        if let Err(msg) = run_case(&mut rng, &mut seen) {
            panic!("case {case} (seed {seed:#x}): {msg}");
        }
    }
    let all = [
        Transition::Share,
        Transition::Split,
        Transition::FreezeShared,
        Transition::ThawShared,
        Transition::NoOpThaw,
        Transition::Crash,
        Transition::Reshare,
    ];
    for t in all {
        assert!(seen[t as usize] > 0, "no {t:?} in {cases} cases: {seen:?}");
    }
    eprintln!("lockstep transitions over {cases} cases: {seen:?}");
}

/// Amounts where an exact floor could slip: zero, the subnormals, just
/// under one, either side of 2^52 (where adding 2^52 stops rounding away
/// a fraction), far past it, and +∞.
const EDGES: [f64; 12] = [
    0.0,
    f64::from_bits(1),
    f64::MIN_POSITIVE,
    1.0 - f64::EPSILON / 2.0,
    4_503_599_627_370_495.5,      // 2^52 − 0.5
    4_503_599_627_370_496.0,      // 2^52
    4_503_599_627_370_497.0,      // 2^52 + 1
    9_007_199_254_740_992.0,      // 2^53
    9_223_372_036_854_775_808.0,  // 2^63
    18_446_744_073_709_551_616.0, // 2^64
    1e300,
    f64::INFINITY,
];

/// A non-negative amount: an edge, any non-negative bit pattern (NaNs
/// included, which both sides clamp to zero), or a fraction at a
/// workload-like magnitude.
fn amount(rng: &mut TestRng) -> f64 {
    match rng.below(3) {
        0 => EDGES[rng.below(EDGES.len() as u64) as usize],
        1 => f64::from_bits(rng.next_u64() >> 1),
        _ => rng.unit_f64() * 10f64.powi(rng.below(20) as i32),
    }
}

#[test]
fn register_add_is_the_parents_step_bit_for_bit() {
    let cases = proptest::case_count().max(CASES) * 16;
    let base = proptest::fnv1a("register_add_is_the_parents_step_bit_for_bit");
    for case in 0..cases {
        let seed = base ^ case.wrapping_mul(0x9E37_79B9_7F4A_7C15);
        let mut rng = TestRng::seed_from_u64(seed);
        let mut reg = Register::default();
        let (mut total, mut frac) = (0u64, FracAccum::default());
        for step in 0..1 + rng.below(16) {
            let a = amount(&mut rng);
            reg.add(a);
            total = total.saturating_add(frac.step(a));
            assert!(
                reg.total() == total && reg.carry().to_bits() == frac.carry.to_bits(),
                "case {case} (seed {seed:#x}) step {step}: add({a:e}) gives ({}, {:e}), \
                 parent ({total}, {:e})",
                reg.total(),
                reg.carry(),
                frac.carry
            );
        }
    }
}
