//! The five workloads: what the daemon is started with, and the seeded request
//! streams and arrival schedule sent to it. `--seed` reaches nothing but this module.

use bea_core::Value;
use bea_workload::accidents::{date_value, district_value};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::fmt::Write as _;

/// Tuples in the generated accidents store (daemon and in-process copy alike).
pub const STORE_TUPLES: u64 = 1_000_000;
/// Seed of the store generator. Fixed: `--seed` varies the requests, not the data.
pub const STORE_SEED: u64 = 48_879;
/// Connections, one client thread each: `nproc` is 2 on the builder's machine and the
/// harness never runs more client threads than cores.
pub const CONNECTIONS: usize = 2;
/// Daemon worker threads (`--threads`).
pub const DAEMON_THREADS: usize = 2;
/// Arrival rate of `mixed_open_loop` in requests per second: a third of the ≈3550 req/s
/// the same mix sustained closed-loop on the builder's machine, to the nearest 100. The
/// issue asked for half; at 1800 req/s one run in ten tipped into a backlog when the host
/// slowed down (REPEATABILITY.md). Frozen here; never derived at run time.
pub const OPEN_LOOP_RATE: f64 = 1200.0;
/// Days × districts of the `q0_hot_cached` hot set.
pub const HOT_DAYS: u32 = 16;
pub const HOT_DISTRICTS: u32 = 39;

/// What a request is, which fixes the verdict the daemon must give it.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Class {
    /// Accident by id: one fetch through ψ3.
    Point,
    /// The paper's Q0 for one (district, day).
    Q0,
    /// Every accident of one day with its district: a ≈300-row reply.
    DayScan,
    /// Union of two Q0 branches, priced at twice Q0's bound.
    Union,
    /// A relation the catalog does not have.
    UnknownRelation,
    /// A query the access schema does not cover.
    Uncovered,
}

/// The reply classes the daemon can answer with.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    Ok,
    Reject,
    ErrParse,
    ErrPlan,
    /// Any other `ERR`, or a head line that is none of the above.
    Other,
}

impl Class {
    /// The verdict the daemon must give a request of this class.
    pub fn expected(self) -> Verdict {
        match self {
            Class::Point | Class::Q0 | Class::DayScan => Verdict::Ok,
            // Unions are sent only by `mixed_open_loop`, whose budget is below their price.
            Class::Union => Verdict::Reject,
            Class::UnknownRelation => Verdict::ErrParse,
            Class::Uncovered => Verdict::ErrPlan,
        }
    }
}

/// One workload: daemon settings plus traffic shape.
#[derive(Debug)]
pub struct Spec {
    pub name: &'static str,
    /// `BEA_SHARDS` for the daemon and the in-process store (1 = unset).
    pub shards: u32,
    /// `--cache-rows` (0 = cache disabled).
    pub cache_rows: u64,
    /// `--fetch-budget` (0 = unlimited).
    pub fetch_budget: u64,
    /// Open loop at [`OPEN_LOOP_RATE`] instead of closed loop.
    pub open_loop: bool,
    /// Keys drawn from the hot set instead of the whole store.
    pub hot_set: bool,
    /// Shares of each class in percent; sums to 100.
    pub mix: &'static [(Class, u32)],
}

pub const WORKLOADS: [Spec; 5] = [
    Spec {
        name: "point_lookup",
        shards: 1,
        cache_rows: 0,
        fetch_budget: 0,
        open_loop: false,
        hot_set: false,
        mix: &[(Class::Point, 100)],
    },
    Spec {
        name: "point_lookup_sharded",
        shards: 4,
        cache_rows: 0,
        fetch_budget: 0,
        open_loop: false,
        hot_set: false,
        mix: &[(Class::Point, 100)],
    },
    Spec {
        name: "q0_join",
        shards: 1,
        cache_rows: 0,
        fetch_budget: 0,
        open_loop: false,
        hot_set: false,
        mix: &[(Class::Q0, 100)],
    },
    Spec {
        name: "q0_hot_cached",
        shards: 1,
        cache_rows: 65_536,
        fetch_budget: 0,
        open_loop: false,
        hot_set: true,
        mix: &[(Class::Q0, 100)],
    },
    Spec {
        name: "mixed_open_loop",
        shards: 1,
        // The issue asked for a cache too small for the working set (8192 rows). The
        // seed's cache re-sorts every resident entry on each over-budget fill, so that
        // setting serves 56 req/s and no open-loop rate fits it (README, "Predictions").
        cache_rows: 0,
        // One Q0 (235 460) fits, two do not: concurrent Q0s queue FIFO.
        fetch_budget: 360_000,
        open_loop: true,
        hot_set: false,
        mix: &[
            (Class::Point, 60),
            (Class::Q0, 20),
            (Class::DayScan, 10),
            (Class::Union, 6),
            (Class::UnknownRelation, 2),
            (Class::Uncovered, 2),
        ],
    },
];

pub fn find(name: &str) -> Option<&'static Spec> {
    WORKLOADS.iter().find(|spec| spec.name == name)
}

/// The key ranges of the store, read off the in-process copy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Domain {
    /// Accident ids are `1..=accidents`.
    pub accidents: i64,
    /// Days are `0..days`.
    pub days: u32,
    /// Districts are `0..districts`; district 0 is "Queen's Park".
    pub districts: u32,
}

/// Independent sub-streams of one `--seed`.
#[derive(Debug, Clone, Copy)]
pub enum Lane {
    /// Requests of connection `n` (closed loop) or of the single open-loop stream (0).
    Requests(u64),
    /// Open-loop arrival times.
    Arrivals,
    /// The requests compared against the naive evaluator.
    Oracle,
}

fn rng_for(seed: u64, lane: Lane) -> StdRng {
    let lane = match lane {
        Lane::Requests(n) => n,
        Lane::Arrivals => 1 << 32,
        Lane::Oracle => 2 << 32,
    };
    StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) ^ lane)
}

/// One generated request: the wire line, its class and its constants.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Req {
    /// The full request line (`QUERY …`), without the newline.
    pub line: String,
    pub class: Class,
    /// The constants of an answerable request as store values — `[aid]` for a point
    /// lookup, `[district, day]` for Q0, `[day]` for a day scan — and empty otherwise.
    pub key: Vec<Value>,
}

impl Req {
    pub fn empty() -> Self {
        Req {
            line: String::new(),
            class: Class::Point,
            key: Vec::new(),
        }
    }
}

/// An endless seeded request stream. It depends on the seed, the lane, the mix and the
/// key domain — not on the workload's daemon settings, so `point_lookup` and
/// `point_lookup_sharded` send the identical bytes.
pub struct Stream {
    rng: StdRng,
    spec: &'static Spec,
    domain: Domain,
}

impl Stream {
    pub fn new(spec: &'static Spec, domain: Domain, seed: u64, lane: Lane) -> Self {
        Stream {
            rng: rng_for(seed, lane),
            spec,
            domain,
        }
    }

    fn district_day(&mut self) -> (u32, u32) {
        if self.spec.hot_set {
            // Hot days are spread evenly over the store, districts skip "Queen's Park".
            let slot = self.rng.gen_range(0..HOT_DAYS);
            (
                self.rng.gen_range(1..=HOT_DISTRICTS),
                slot * (self.domain.days / HOT_DAYS),
            )
        } else {
            (
                self.rng.gen_range(0..self.domain.districts),
                self.rng.gen_range(0..self.domain.days),
            )
        }
    }

    /// Append one Q0 rule over a drawn (district, day); returns the two constants.
    fn push_q0_rule(&mut self, line: &mut String) -> [Value; 2] {
        let (district, day) = self.district_day();
        let key = [district_value(district), date_value(day)];
        let _ = write!(
            line,
            "Q0(age) :- Accident(aid, {}, {}), Casualty(cid, aid, class, vid), \
             Vehicle(vid, driver, age).",
            key[0], key[1]
        );
        key
    }

    /// Overwrite `req` with the next request (its buffers are reused).
    pub fn next_into(&mut self, req: &mut Req) {
        let mut draw = self.rng.gen_range(0..100u32);
        let class = self
            .spec
            .mix
            .iter()
            .find_map(|&(class, share)| {
                if draw < share {
                    Some(class)
                } else {
                    draw -= share;
                    None
                }
            })
            .expect("mix shares sum to 100");
        req.class = class;
        req.key.clear();
        let line = &mut req.line;
        line.clear();
        line.push_str("QUERY ");
        match class {
            Class::Point => {
                let aid = self.rng.gen_range(1..=self.domain.accidents);
                let _ = write!(line, "Q(d, t) :- Accident(x, d, t), x = {aid}.");
                req.key.push(Value::Int(aid));
            }
            Class::Q0 => req.key.extend(self.push_q0_rule(line)),
            Class::DayScan => {
                let day = date_value(self.rng.gen_range(0..self.domain.days));
                let _ = write!(line, "Q(aid, d) :- Accident(aid, d, {day}).");
                req.key.push(day);
            }
            Class::Union => {
                self.push_q0_rule(line);
                line.push(' ');
                self.push_q0_rule(line);
            }
            Class::UnknownRelation => {
                let aid = self.rng.gen_range(1..=self.domain.accidents);
                let _ = write!(line, "Q(d) :- Incident(x, d), x = {aid}.");
            }
            Class::Uncovered => {
                let district = district_value(self.rng.gen_range(0..self.domain.districts));
                let _ = write!(line, "Q(aid) :- Accident(aid, {district}, t).");
            }
        }
    }

    /// The first `n` requests as owned values.
    pub fn take(mut self, n: usize) -> Vec<Req> {
        (0..n)
            .map(|_| {
                let mut req = Req::empty();
                self.next_into(&mut req);
                req
            })
            .collect()
    }
}

/// Seeded Poisson arrivals at `rate` per second: due times in nanoseconds from the
/// start of the run, ascending, covering `[0, duration_ns)`.
pub fn poisson_schedule(seed: u64, rate: f64, duration_ns: u64) -> Vec<u64> {
    let mut rng = rng_for(seed, Lane::Arrivals);
    let mut due = Vec::with_capacity((rate * duration_ns as f64 / 1e9 * 1.1) as usize);
    let mut t = 0.0f64;
    loop {
        let u: f64 = rng.gen();
        t += -(1.0 - u).ln() / rate * 1e9;
        if t >= duration_ns as f64 {
            return due;
        }
        due.push(t as u64);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const DOMAIN: Domain = Domain {
        accidents: 200_000,
        days: 666,
        districts: 40,
    };

    fn lines(spec: &'static Spec, seed: u64, lane: Lane, n: usize) -> Vec<String> {
        Stream::new(spec, DOMAIN, seed, lane)
            .take(n)
            .into_iter()
            .map(|req| req.line)
            .collect()
    }

    #[test]
    fn equal_seeds_give_identical_bytes_and_other_seeds_do_not() {
        for spec in &WORKLOADS {
            let a = lines(spec, 7, Lane::Requests(0), 500);
            assert_eq!(a, lines(spec, 7, Lane::Requests(0), 500), "{}", spec.name);
            assert_ne!(a, lines(spec, 8, Lane::Requests(0), 500), "{}", spec.name);
            assert_ne!(a, lines(spec, 7, Lane::Requests(1), 500), "{}", spec.name);
            assert_ne!(a, lines(spec, 7, Lane::Oracle, 500), "{}", spec.name);
        }
    }

    #[test]
    fn the_two_point_workloads_send_the_same_stream() {
        let plain = lines(find("point_lookup").unwrap(), 3, Lane::Requests(1), 200);
        let sharded = lines(
            find("point_lookup_sharded").unwrap(),
            3,
            Lane::Requests(1),
            200,
        );
        assert_eq!(plain, sharded);
    }

    #[test]
    fn mixes_sum_to_100_and_the_stream_follows_them() {
        for spec in &WORKLOADS {
            assert_eq!(spec.mix.iter().map(|m| m.1).sum::<u32>(), 100);
        }
        let mixed = find("mixed_open_loop").unwrap();
        let reqs = Stream::new(mixed, DOMAIN, 11, Lane::Requests(0)).take(20_000);
        for &(class, share) in mixed.mix {
            let seen = reqs.iter().filter(|r| r.class == class).count() as f64 / 200.0;
            assert!(
                (seen - share as f64).abs() < 1.0,
                "{class:?}: {seen}% vs {share}%"
            );
        }
    }

    #[test]
    fn the_hot_set_is_16_days_by_39_districts() {
        let hot = find("q0_hot_cached").unwrap();
        let reqs = Stream::new(hot, DOMAIN, 5, Lane::Requests(0)).take(20_000);
        let distinct: std::collections::BTreeSet<&str> =
            reqs.iter().map(|r| r.line.as_str()).collect();
        assert_eq!(distinct.len(), (HOT_DAYS * HOT_DISTRICTS) as usize);
        assert!(reqs.iter().all(|r| !r.line.contains("Queen's Park")));
    }

    #[test]
    fn requests_are_protocol_lines_the_daemon_parses() {
        let catalog = bea_workload::accidents::catalog();
        let mixed = find("mixed_open_loop").unwrap();
        for req in Stream::new(mixed, DOMAIN, 1, Lane::Requests(0)).take(300) {
            let bead::Request::Query(text) = bead::Request::parse(&req.line).unwrap() else {
                panic!("{:?} is not a QUERY line", req.line);
            };
            assert_eq!(req.line, format!("QUERY {text}"));
            let query = bea_parser::parse_query(&catalog, &text);
            assert_eq!(query.is_err(), req.class == Class::UnknownRelation);
        }
    }

    #[test]
    fn poisson_schedule_is_deterministic_ascending_and_at_rate() {
        let a = poisson_schedule(9, 1500.0, 4_000_000_000);
        assert_eq!(a, poisson_schedule(9, 1500.0, 4_000_000_000));
        assert_ne!(a, poisson_schedule(10, 1500.0, 4_000_000_000));
        assert!(a.windows(2).all(|w| w[0] <= w[1]));
        assert!(*a.last().unwrap() < 4_000_000_000);
        // 6000 expected, standard deviation ≈ 77.
        assert!((5600..6400).contains(&a.len()), "{}", a.len());
    }
}
