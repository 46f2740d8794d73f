//! The workloads: which circuits are loaded, and the fixed request
//! script each repetition sends over loopback TCP.

use crate::json;
use mft_circuit::{
    parse_bench, write_bench, CircuitError, GateKind, NetId, Netlist, NetlistBuilder, C17_BENCH,
};
use mft_core::{LineClient, LoadRequest, Request, RequestFrame};
use mft_gen::{ladder_rung, Benchmark};
use std::net::{SocketAddr, TcpStream};
use std::sync::{Barrier, Mutex};
use std::time::{Duration, Instant};

/// Request kinds the scripts send.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Size,
    SizePower,
    Sweep,
    WhatIf,
    Stats,
}

/// Where a circuit's netlist comes from.
#[derive(Debug, Clone, Copy)]
pub enum Source {
    Iscas(Benchmark),
    Ladder(&'static str),
    C17,
}

impl Source {
    /// The inline `.bench` text the `load` request carries.
    pub fn bench_text(self) -> Result<String, String> {
        let netlist = match self {
            Source::Iscas(b) => b.generate().map_err(|e| e.to_string())?,
            Source::Ladder(name) => bench_expressible(
                &ladder_rung(name)
                    .ok_or_else(|| format!("unknown ladder rung `{name}`"))?
                    .generate()
                    .map_err(|e| e.to_string())?,
            )
            .map_err(|e| e.to_string())?,
            Source::C17 => parse_bench("c17", C17_BENCH).map_err(|e| e.to_string())?,
        };
        write_bench(&netlist).map_err(|e| e.to_string())
    }
}

/// A copy of `netlist` that `.bench` can carry: the format has no
/// AOI/OAI cells, so each becomes its AND/OR stage feeding a NOR/NAND
/// (`AOI21(a,b,c)` = `NOR(AND(a,b),c)`, and so on).
fn bench_expressible(netlist: &Netlist) -> Result<Netlist, CircuitError> {
    let mut b = NetlistBuilder::new(netlist.name());
    let mut map: Vec<Option<NetId>> = vec![None; netlist.num_nets()];
    let name_of =
        |net: NetId, fallback: String| netlist.net(net).name().map_or(fallback, str::to_owned);
    for (k, &pi) in netlist.inputs().iter().enumerate() {
        map[pi.index()] = Some(b.input(name_of(pi, format!("i{k}"))));
    }
    for g in netlist.topo_gates()? {
        let gate = netlist.gate(g);
        let ins: Vec<NetId> = gate
            .inputs()
            .iter()
            .map(|n| map[n.index()].expect("topological order maps every fanin"))
            .collect();
        let out = match gate.kind() {
            GateKind::Aoi21 => {
                let t = b.gate(GateKind::and(2)?, &ins[..2])?;
                b.gate(GateKind::nor(2)?, &[t, ins[2]])?
            }
            GateKind::Oai21 => {
                let t = b.gate(GateKind::or(2)?, &ins[..2])?;
                b.gate(GateKind::nand(2)?, &[t, ins[2]])?
            }
            GateKind::Aoi22 => {
                let t = b.gate(GateKind::and(2)?, &ins[..2])?;
                let u = b.gate(GateKind::and(2)?, &ins[2..])?;
                b.gate(GateKind::nor(2)?, &[t, u])?
            }
            GateKind::Oai22 => {
                let t = b.gate(GateKind::or(2)?, &ins[..2])?;
                let u = b.gate(GateKind::or(2)?, &ins[2..])?;
                b.gate(GateKind::nand(2)?, &[t, u])?
            }
            kind => b.gate(kind, &ins)?,
        };
        map[gate.output().index()] = Some(out);
    }
    for (k, &po) in netlist.outputs().iter().enumerate() {
        let net = map[po.index()].expect("every output is driven");
        b.output(net, name_of(po, format!("o{k}")));
    }
    b.finish()
}

/// One circuit a workload loads.
#[derive(Debug, Clone)]
pub struct CircuitDef {
    pub name: &'static str,
    pub source: Source,
    pub preset: &'static str,
    pub replicas: usize,
}

/// The request script of one repetition.
#[derive(Debug, Clone)]
pub enum Script {
    /// One connection: `size` at each spec in turn on circuit 0.
    Flow { specs: Vec<f64> },
    /// Two connections in lock-step rounds. Writer: `size` on every
    /// circuit, one `size_power` and one 8-spec `sweep` on a warm
    /// circuit. Reader: `what_if` of the previous round's sizes with a
    /// few gates perturbed, then one `stats`.
    Mixed {
        rounds: usize,
        reads_per_round: usize,
    },
    /// One connection: a stream of `what_if` candidates on circuit 0,
    /// each changing ~1% of the gates of the previous one, a fresh
    /// vector every `fresh_every`-th.
    Stream {
        candidates: usize,
        fresh_every: usize,
    },
}

/// A named workload.
#[derive(Debug, Clone)]
pub struct Workload {
    pub name: &'static str,
    pub circuits: Vec<CircuitDef>,
    pub script: Script,
    /// The request kind `lead_ms_mean` reports.
    pub lead: Kind,
}

pub const WORKLOADS: [&str; 3] = ["c6288_flow", "iscas_mixed", "what_if_10k"];

/// Looks a workload up by name; `smoke` swaps in c17/c432-like
/// circuits and short scripts of the same shape.
pub fn workload(name: &str, smoke: bool) -> Option<Workload> {
    let def = |name, source, preset, replicas| CircuitDef {
        name,
        source,
        preset,
        replicas,
    };
    let c432 = Source::Iscas(Benchmark::C432);
    Some(match name {
        "c6288_flow" => Workload {
            name: "c6288_flow",
            circuits: vec![if smoke {
                def("c432", c432, "warm", 0)
            } else {
                def("c6288", Source::Iscas(Benchmark::C6288), "warm", 0)
            }],
            script: Script::Flow {
                specs: if smoke {
                    vec![0.6, 0.55, 0.5]
                } else {
                    vec![0.45, 0.42, 0.40]
                },
            },
            lead: Kind::Size,
        },
        "iscas_mixed" => Workload {
            name: "iscas_mixed",
            circuits: if smoke {
                vec![
                    def("c17", Source::C17, "warm", 0),
                    def("c432", c432, "warm", 0),
                    def("c17_cold", Source::C17, "cold", 0),
                ]
            } else {
                vec![
                    def("c432", c432, "warm", 0),
                    def("c880", Source::Iscas(Benchmark::C880), "warm", 0),
                    def("c1908", Source::Iscas(Benchmark::C1908), "warm", 0),
                    def("c880_cold", Source::Iscas(Benchmark::C880), "cold", 0),
                ]
            },
            script: Script::Mixed {
                rounds: if smoke { 2 } else { 4 },
                reads_per_round: if smoke { 4 } else { 16 },
            },
            lead: Kind::Size,
        },
        "what_if_10k" => Workload {
            name: "what_if_10k",
            circuits: vec![if smoke {
                def("c432", c432, "warm", 1)
            } else {
                def("rand10k", Source::Ladder("rand10k"), "warm", 1)
            }],
            script: Script::Stream {
                candidates: if smoke { 60 } else { 600 },
                fresh_every: 25,
            },
            lead: Kind::WhatIf,
        },
        _ => return None,
    })
}

/// SplitMix64: the seeded source of every spec draw and perturbation.
#[derive(Debug, Clone)]
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Self {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    pub fn unit(&mut self) -> f64 {
        (self.next_u64() >> 11) as f64 / (1u64 << 53) as f64
    }

    pub fn range(&mut self, lo: f64, hi: f64) -> f64 {
        lo + (hi - lo) * self.unit()
    }

    pub fn below(&mut self, n: usize) -> usize {
        (self.next_u64() % n as u64) as usize
    }
}

/// The candidate stream of [`Script::Stream`]: deterministic per seed,
/// so the replay and the output checks regenerate it instead of
/// keeping every ~10k-float request line.
#[derive(Debug, Clone)]
pub struct Candidates {
    rng: Rng,
    sizes: Vec<f64>,
    index: usize,
    fresh_every: usize,
    pub spec: f64,
}

impl Candidates {
    pub fn new(seed: u64, n: usize, fresh_every: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x005E_ED0F_CAFE);
        let spec = rng.range(0.8, 1.2);
        Candidates {
            rng,
            sizes: vec![1.0; n],
            index: 0,
            fresh_every,
            spec,
        }
    }

    /// The next candidate size vector.
    pub fn next_sizes(&mut self) -> &[f64] {
        let n = self.sizes.len();
        if self.index.is_multiple_of(self.fresh_every) {
            for x in &mut self.sizes {
                *x = self.rng.range(1.0, 3.0);
            }
        } else {
            for _ in 0..(n / 100).max(1) {
                let i = self.rng.below(n);
                self.sizes[i] = self.rng.range(1.0, 3.0);
            }
        }
        self.index += 1;
        &self.sizes
    }
}

/// Builds the `what_if` line for a candidate.
pub fn what_if_line(circuit: &str, sizes: &[f64], spec: f64) -> String {
    RequestFrame::new(Request::WhatIf {
        sizes: sizes.to_vec(),
        spec: Some(spec),
        target: None,
    })
    .for_circuit(circuit)
    .to_json_line()
}

/// One request/response pair of a repetition.
#[derive(Debug, Clone)]
pub struct Exchange {
    pub round: usize,
    pub conn: usize,
    pub circuit: usize,
    pub kind: Kind,
    /// The request line; `None` for stream candidates, which are
    /// regenerated from the seed.
    pub request: Option<String>,
    pub response: String,
    pub latency: Duration,
}

impl Exchange {
    pub fn is_error(&self) -> bool {
        json::string(&self.response, "type") == Some("error")
    }
}

/// One repetition: setup (loads), the script, and the unloads.
#[derive(Debug, Clone)]
pub struct Rep {
    pub setup: Duration,
    pub script: Duration,
    pub exchanges: Vec<Exchange>,
    /// `vertices` of each `loaded` response.
    pub vertices: Vec<usize>,
    /// Registry requests (`load`/`unload`) that did not succeed.
    pub registry_failures: usize,
    /// Registry requests sent.
    pub registry_requests: usize,
}

type Client = LineClient<TcpStream>;

fn connect(addr: SocketAddr) -> Result<Client, String> {
    let client = LineClient::connect_timeout(addr, Duration::from_secs(10))
        .map_err(|e| format!("connect {addr}: {e}"))?;
    client
        .set_read_timeout(Some(Duration::from_secs(150)))
        .map_err(|e| e.to_string())?;
    Ok(client)
}

/// Sends one line and times it from request line to response line.
fn timed(client: &mut Client, line: &str) -> Result<(String, Duration), String> {
    let t0 = Instant::now();
    client.send_raw(line).map_err(|e| format!("send: {e}"))?;
    let response = client
        .recv()
        .map_err(|e| format!("recv: {e}"))?
        .ok_or("server closed the connection")?;
    Ok((response, t0.elapsed()))
}

/// The inline-netlist `load` line of a circuit.
pub fn load_line(def: &CircuitDef, bench: &str) -> String {
    RequestFrame::new(Request::Load(LoadRequest {
        bench: Some(bench.to_owned()),
        preset: Some(def.preset.to_owned()),
        replicas: Some(def.replicas),
        ..Default::default()
    }))
    .for_circuit(def.name)
    .to_json_line()
}

/// Loads every circuit (timed, summed), returning the setup time, the
/// vertex counts and the number of failed loads.
fn load_all(
    client: &mut Client,
    w: &Workload,
    loads: &[String],
) -> Result<(Duration, Vec<usize>, usize), String> {
    let mut setup = Duration::ZERO;
    let mut vertices = Vec::new();
    let mut failures = 0;
    for (def, line) in w.circuits.iter().zip(loads) {
        let (response, latency) = timed(client, line)?;
        setup += latency;
        if json::string(&response, "type") != Some("loaded") {
            eprintln!("e2ebench: load of {} failed: {response}", def.name);
            failures += 1;
        }
        vertices.push(json::number(&response, "vertices").unwrap_or(0.0) as usize);
    }
    Ok((setup, vertices, failures))
}

fn unload_all(client: &mut Client, w: &Workload) -> Result<usize, String> {
    let mut failures = 0;
    for def in &w.circuits {
        let line = RequestFrame::new(Request::Unload)
            .for_circuit(def.name)
            .to_json_line();
        let (response, _) = timed(client, &line)?;
        if json::string(&response, "type") != Some("unloaded") {
            failures += 1;
        }
    }
    Ok(failures)
}

/// A setup-only cycle (load everything, unload everything) for extra
/// `setup_s` samples.
pub fn setup_cycle(addr: SocketAddr, w: &Workload, loads: &[String]) -> Result<Duration, String> {
    let mut client = connect(addr)?;
    let (setup, _, failures) = load_all(&mut client, w, loads)?;
    let failures = failures + unload_all(&mut client, w)?;
    if failures > 0 {
        return Err(format!(
            "{failures} registry requests failed in a setup cycle"
        ));
    }
    Ok(setup)
}

/// Runs one repetition of the workload's script against the server.
pub fn run_rep(addr: SocketAddr, w: &Workload, loads: &[String], seed: u64) -> Result<Rep, String> {
    let mut client = connect(addr)?;
    let (setup, vertices, load_failures) = load_all(&mut client, w, loads)?;
    let t0 = Instant::now();
    let exchanges = match &w.script {
        Script::Flow { specs } => flow(&mut client, w, specs)?,
        Script::Mixed {
            rounds,
            reads_per_round,
        } => {
            let reader = connect(addr)?;
            mixed(
                &mut client,
                reader,
                w,
                &vertices,
                seed,
                *rounds,
                *reads_per_round,
            )?
        }
        Script::Stream {
            candidates,
            fresh_every,
        } => stream(&mut client, w, vertices[0], seed, *candidates, *fresh_every)?,
    };
    let script = t0.elapsed();
    let unload_failures = unload_all(&mut client, w)?;
    Ok(Rep {
        setup,
        script,
        exchanges,
        vertices,
        registry_failures: load_failures + unload_failures,
        registry_requests: 2 * w.circuits.len(),
    })
}

fn size_line(circuit: &str, spec: f64, power: bool) -> String {
    let request = if power {
        Request::SizePower {
            spec: Some(spec),
            target: None,
            return_sizes: true,
        }
    } else {
        Request::Size {
            spec: Some(spec),
            target: None,
            return_sizes: true,
        }
    };
    RequestFrame::new(request)
        .for_circuit(circuit)
        .to_json_line()
}

fn flow(client: &mut Client, w: &Workload, specs: &[f64]) -> Result<Vec<Exchange>, String> {
    specs
        .iter()
        .map(|&spec| {
            let line = size_line(w.circuits[0].name, spec, false);
            exchange(client, 0, 0, 0, Kind::Size, line)
        })
        .collect()
}

/// A copy of `base` with ~2% of its entries (at least one) scaled.
fn perturb(rng: &mut Rng, base: &[f64]) -> Vec<f64> {
    let mut sizes = base.to_vec();
    for _ in 0..(sizes.len() / 50).max(1) {
        let i = rng.below(sizes.len());
        sizes[i] = (sizes[i] * rng.range(0.8, 1.25)).clamp(1.0, 16.0);
    }
    sizes
}

/// Runs [`Script::Mixed`]: the writer on `writer` (this thread), the
/// reader on its own connection and thread. Both pass two barriers per
/// round — even after an error — so neither can strand the other.
fn mixed(
    writer: &mut Client,
    mut reader: Client,
    w: &Workload,
    vertices: &[usize],
    seed: u64,
    rounds: usize,
    reads_per_round: usize,
) -> Result<Vec<Exchange>, String> {
    let names: Vec<&str> = w.circuits.iter().map(|c| c.name).collect();
    let warm: Vec<usize> = (0..names.len())
        .filter(|&i| w.circuits[i].preset == "warm")
        .collect();
    // The sizes the reader perturbs: the writer's latest `size` answer
    // per circuit, published at the end of each round.
    let bases = Mutex::new(vertices.iter().map(|&n| vec![1.0; n]).collect::<Vec<_>>());
    let barrier = Barrier::new(2);
    let plan = SpecPlan::new(seed, names.len(), rounds);
    let (writes, reads) = std::thread::scope(|scope| {
        let reads = scope.spawn(|| {
            let mut rng = Rng::new(seed ^ 0x0EAD);
            let mut out = Vec::new();
            let mut error = None;
            for round in 0..rounds {
                let snapshot = bases.lock().expect("bases lock poisoned").clone();
                barrier.wait();
                if error.is_none() {
                    let spec = ladder(round);
                    let mut read = || -> Result<(), String> {
                        for q in 0..reads_per_round {
                            let circuit = q % names.len();
                            let sizes = perturb(&mut rng, &snapshot[circuit]);
                            let line = what_if_line(names[circuit], &sizes, spec);
                            out.push(exchange(
                                &mut reader,
                                round,
                                1,
                                circuit,
                                Kind::WhatIf,
                                line,
                            )?);
                        }
                        let circuit = round % names.len();
                        let line = RequestFrame::new(Request::Stats)
                            .for_circuit(names[circuit])
                            .to_json_line();
                        out.push(exchange(&mut reader, round, 1, circuit, Kind::Stats, line)?);
                        Ok(())
                    };
                    error = read().err();
                }
                barrier.wait();
            }
            error.map_or(Ok(out), Err)
        });
        let mut out = Vec::new();
        let mut error = None;
        for round in 0..rounds {
            barrier.wait();
            if error.is_none() {
                let mut write = || -> Result<(), String> {
                    let mut next = bases.lock().expect("bases lock poisoned").clone();
                    for (circuit, name) in names.iter().enumerate() {
                        let line = size_line(name, plan.size[circuit][round], false);
                        let e = exchange(writer, round, 0, circuit, Kind::Size, line)?;
                        if let Some(sizes) = json::numbers(&e.response, "sizes") {
                            next[circuit] = sizes;
                        }
                        out.push(e);
                    }
                    let circuit = warm[round % warm.len()];
                    let line = size_line(names[circuit], plan.power[round], true);
                    out.push(exchange(writer, round, 0, circuit, Kind::SizePower, line)?);
                    let circuit = warm[(round + 1) % warm.len()];
                    let specs = plan.sweep[round].clone();
                    let line = RequestFrame::new(Request::Sweep { specs })
                        .for_circuit(names[circuit])
                        .to_json_line();
                    out.push(exchange(writer, round, 0, circuit, Kind::Sweep, line)?);
                    *bases.lock().expect("bases lock poisoned") = next;
                    Ok(())
                };
                error = write().err();
            }
            barrier.wait();
        }
        let writes = error.map_or(Ok(out), Err);
        (writes, reads.join().expect("reader thread panicked"))
    });
    let mut all = writes?;
    all.extend(reads?);
    all.sort_by_key(|e| (e.round, e.conn));
    Ok(all)
}

/// One timed exchange with its request line kept.
fn exchange(
    client: &mut Client,
    round: usize,
    conn: usize,
    circuit: usize,
    kind: Kind,
    line: String,
) -> Result<Exchange, String> {
    let (response, latency) = timed(client, &line)?;
    Ok(Exchange {
        round,
        conn,
        circuit,
        kind,
        request: Some(line),
        response,
        latency,
    })
}

/// Step `k` of the writer's spec ladder: 0.60, 0.56, 0.52, …
fn ladder(k: usize) -> f64 {
    0.6 - 0.04 * k as f64
}

/// The writer's seeded spec schedule. Each circuit sizes every ladder
/// step once, and so does the `size_power` request, each in its own
/// seeded order; each sweep sends the 8 specs 0.90 … 0.55 in a seeded
/// order. Every seed therefore asks for the same set of sizings, which
/// keeps the work per repetition nearly seed-independent.
struct SpecPlan {
    /// `size[circuit][round]`.
    size: Vec<Vec<f64>>,
    power: Vec<f64>,
    sweep: Vec<Vec<f64>>,
}

impl SpecPlan {
    fn new(seed: u64, circuits: usize, rounds: usize) -> Self {
        let mut rng = Rng::new(seed ^ 0x0217E);
        let mut shuffled = |mut v: Vec<f64>| {
            for i in (1..v.len()).rev() {
                v.swap(i, rng.below(i + 1));
            }
            v
        };
        let steps: Vec<f64> = (0..rounds).map(ladder).collect();
        SpecPlan {
            size: (0..circuits).map(|_| shuffled(steps.clone())).collect(),
            power: shuffled(steps.clone()),
            sweep: (0..rounds)
                .map(|_| shuffled((0..8).map(|k| 0.9 - 0.05 * k as f64).collect()))
                .collect(),
        }
    }
}

fn stream(
    client: &mut Client,
    w: &Workload,
    n: usize,
    seed: u64,
    count: usize,
    fresh_every: usize,
) -> Result<Vec<Exchange>, String> {
    let name = w.circuits[0].name;
    let mut candidates = Candidates::new(seed, n, fresh_every);
    let spec = candidates.spec;
    let mut out = Vec::with_capacity(count);
    for _ in 0..count {
        let line = what_if_line(name, candidates.next_sizes(), spec);
        let (response, latency) = timed(client, &line)?;
        out.push(Exchange {
            round: 0,
            conn: 0,
            circuit: 0,
            kind: Kind::WhatIf,
            request: None,
            response,
            latency,
        });
    }
    Ok(out)
}
