//! One client batch over several destinations: the cluster client's run
//! planner.
//!
//! The paper's client (§2.4) sends each request to the server that owns
//! its key, pipelines independent requests as one round per destination
//! and installs joins on every server. This module makes that decision
//! once, without doing any I/O, for `pequod_cluster::ClusterClient`, the
//! one host that needs it, on sockets and on the simulator alike.
//!
//! * [`split_runs`] cuts a batch into maximal runs of one command class.
//!   A run is one pipelined round; the next starts only once it is fully
//!   answered, so a batch answers exactly like the same commands issued
//!   one at a time.
//! * [`Fanout::plan`] gives every command of a run an id, in command
//!   order, and routes it ([`Route`]): to one destination, to all of
//!   them under one id, or nowhere when the host already has the answer.
//!   The host sends what the plan lists per destination however its
//!   transport does.
//! * The returned [`PendingRun`] takes `(id, Response)` replies in any
//!   order and [`finish`](PendingRun::finish)es into one response per
//!   command: a single reply passes through, a broadcast folds (a join
//!   installs only if every destination installed it, stats sum), and a
//!   reply that never came becomes an error.

use crate::client::{BackendStats, Command, Response};
use std::ops::Range;

/// Command classes whose members may share one pipelined run without
/// changing observable results: reads don't mutate client-visible
/// state, and writes aren't observed until the next read.
#[derive(Clone, Copy, PartialEq, Eq)]
enum CommandClass {
    Read,
    Write,
    Join,
    /// Stats aggregates across the whole deployment, so it must not
    /// share a run with commands whose effects it would otherwise miss.
    Stats,
}

fn class_of(command: &Command) -> CommandClass {
    match command {
        Command::Get(_) | Command::Scan(_) | Command::Count(_) => CommandClass::Read,
        Command::Put(..) | Command::Remove(_) => CommandClass::Write,
        Command::AddJoin(_) => CommandClass::Join,
        Command::Stats => CommandClass::Stats,
    }
}

/// Splits a batch, in order, into maximal runs of one command class. A
/// run executes as one pipelined round per destination and must be fully
/// answered before the next run starts, so a batch answers exactly like
/// the same commands issued one at a time.
pub fn split_runs(commands: Vec<Command>) -> Vec<Vec<Command>> {
    let mut runs: Vec<Vec<Command>> = Vec::new();
    let mut run_class = None;
    for command in commands {
        let class = Some(class_of(&command));
        match runs.last_mut() {
            Some(run) if class == run_class => run.push(command),
            _ => runs.push(vec![command]),
        }
        run_class = class;
    }
    runs
}

/// Where one command of a run goes.
#[derive(Debug)]
pub enum Route {
    /// To this one destination (an index below the planner's
    /// destination count).
    One(usize),
    /// To every destination under one id; the replies fold into one.
    All,
    /// Nowhere: the host already knows the answer. No id is spent.
    Answered(Response),
}

/// The run planner: hands out request ids, unique for its lifetime, and
/// plans each run over a fixed set of destinations.
#[derive(Clone, Debug)]
pub struct Fanout {
    destinations: usize,
    next_id: u64,
}

impl Fanout {
    /// A planner over `destinations` destinations whose first id is 1.
    pub fn new(destinations: usize) -> Fanout {
        Fanout {
            destinations,
            next_id: 1,
        }
    }

    /// Plans one same-class run (see [`split_runs`]): ids in command
    /// order, each command placed by `route`. Returns the run awaiting
    /// its replies and, per destination, the `(id, command)` pairs to
    /// send there in command order — empty for a destination nothing
    /// goes to.
    pub fn plan(
        &mut self,
        commands: Vec<Command>,
        mut route: impl FnMut(&Command) -> Route,
    ) -> (PendingRun, Vec<Vec<(u64, Command)>>) {
        let mut sends: Vec<Vec<(u64, Command)>> = vec![Vec::new(); self.destinations];
        let mut run = PendingRun {
            first_id: self.next_id,
            by_id: Vec::with_capacity(commands.len()),
            slots: Vec::with_capacity(commands.len()),
            owed: 0,
            destinations: self.destinations,
        };
        for command in commands {
            let slot = match route(&command) {
                Route::Answered(response) => {
                    run.slots.push(Answer::One(Some(response)));
                    continue;
                }
                Route::One(to) => {
                    sends[to].push((self.next_id, command));
                    run.owed += 1;
                    Answer::One(None)
                }
                Route::All => {
                    let stats = matches!(command, Command::Stats);
                    for to in sends.iter_mut() {
                        to.push((self.next_id, command.clone()));
                    }
                    run.owed += self.destinations;
                    Answer::All(stats, Vec::with_capacity(self.destinations))
                }
            };
            run.by_id.push(run.slots.len());
            run.slots.push(slot);
            self.next_id += 1;
        }
        (run, sends)
    }
}

/// One command's answer so far.
#[derive(Debug)]
enum Answer {
    /// A command answered by one reply (or by the host).
    One(Option<Response>),
    /// A broadcast `Stats` (`true`) or `AddJoin`: the replies so far.
    All(bool, Vec<Response>),
}

/// One planned run awaiting its replies: a slot per command, in command
/// order.
#[derive(Debug)]
pub struct PendingRun {
    first_id: u64,
    /// The slot of id `first_id + i`.
    by_id: Vec<usize>,
    slots: Vec<Answer>,
    /// Replies still expected.
    owed: usize,
    destinations: usize,
}

impl PendingRun {
    /// The ids this run's replies carry.
    pub fn ids(&self) -> Range<u64> {
        self.first_id..self.first_id + self.by_id.len() as u64
    }

    /// Which command of the run (by position) id `id` answers.
    pub fn slot_of(&self, id: u64) -> Option<usize> {
        let offset = usize::try_from(id.checked_sub(self.first_id)?).ok()?;
        self.by_id.get(offset).copied()
    }

    /// Takes one reply. A reply for another run, or one more than its
    /// command is owed, is ignored. Returns whether every reply is in.
    pub fn absorb(&mut self, id: u64, response: Response) -> bool {
        let Some(slot) = self.slot_of(id) else {
            return self.is_complete();
        };
        match &mut self.slots[slot] {
            Answer::One(reply @ None) => *reply = Some(response),
            Answer::All(_, replies) if replies.len() < self.destinations => replies.push(response),
            _ => return self.is_complete(),
        }
        self.owed -= 1;
        self.is_complete()
    }

    /// Whether every reply is in.
    pub fn is_complete(&self) -> bool {
        self.owed == 0
    }

    /// One response per command, in command order: a single reply as
    /// it came, a broadcast folded — stats summed, a join `Ok` only if
    /// every destination installed it (else the first error). A command
    /// short of its replies answers an error.
    pub fn finish(self) -> Vec<Response> {
        let destinations = self.destinations;
        (self.slots.into_iter())
            .map(|slot| match slot {
                Answer::One(reply) => {
                    reply.unwrap_or_else(|| Response::Error("no reply from cluster".into()))
                }
                Answer::All(stats, replies) if replies.len() < destinations => {
                    let what = if stats { "stats" } else { "addjoin" };
                    let got = replies.len();
                    Response::Error(format!("{what}: {got} of {destinations} nodes replied"))
                }
                Answer::All(true, replies) => {
                    let mut total = BackendStats::default();
                    for r in replies {
                        if let Response::Stats(s) = r {
                            total += s;
                        }
                    }
                    Response::Stats(total)
                }
                Answer::All(false, replies) => (replies.into_iter())
                    .find(|r| matches!(r, Response::Error(_)))
                    .unwrap_or(Response::Ok),
            })
            .collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pequod_store::{Key, KeyRange, Value};

    fn get(k: &str) -> Command {
        Command::Get(Key::from(k))
    }

    fn value(v: &'static [u8]) -> Response {
        Response::Value(Some(Value::from_static(v)))
    }

    /// Routes `Get("d<n>…")` to destination n and broadcasts the rest.
    fn by_first_digit(command: &Command) -> Route {
        match command {
            Command::Get(key) => Route::One(usize::from(key.as_bytes()[1] - b'0')),
            _ => Route::All,
        }
    }

    #[test]
    fn out_of_order_replies_land_in_their_own_slots() {
        let mut fanout = Fanout::new(3);
        let (mut run, sends) =
            fanout.plan(vec![get("d2a"), get("d0b"), get("d2c")], by_first_digit);
        assert_eq!(
            sends,
            vec![
                vec![(2, get("d0b"))],
                vec![],
                vec![(1, get("d2a")), (3, get("d2c"))]
            ]
        );
        assert!(!run.absorb(3, value(b"c")));
        assert!(!run.absorb(1, value(b"a")));
        assert!(run.absorb(2, value(b"b")));
        assert_eq!(run.finish(), vec![value(b"a"), value(b"b"), value(b"c")]);
    }

    #[test]
    fn a_broadcast_folds_by_the_join_rule() {
        let join = || Command::AddJoin("j".into());
        let error = |e: &str| Response::Error(e.into());
        let cases: [(Vec<Response>, Response); 3] = [
            (vec![Response::Ok; 3], Response::Ok),
            (
                vec![Response::Ok, error("bad"), error("worse")],
                error("bad"),
            ),
            (
                vec![Response::Ok, Response::Ok],
                error("addjoin: 2 of 3 nodes replied"),
            ),
        ];
        for (replies, want) in cases {
            let mut fanout = Fanout::new(3);
            let (mut run, sends) = fanout.plan(vec![join()], by_first_digit);
            assert!(sends.iter().all(|s| s == &vec![(1, join())]));
            for reply in replies {
                run.absorb(1, reply);
            }
            assert_eq!(run.finish(), vec![want]);
        }
    }

    #[test]
    fn a_broadcast_stats_sums_and_extra_replies_are_ignored() {
        let stats = |keys| {
            Response::Stats(BackendStats {
                keys,
                ..BackendStats::default()
            })
        };
        let mut fanout = Fanout::new(2);
        let (mut run, _) = fanout.plan(vec![Command::Stats], by_first_digit);
        assert!(!run.absorb(1, stats(3)));
        assert!(run.absorb(1, stats(4)));
        assert!(
            run.absorb(1, stats(100)),
            "a third reply to a 2-way broadcast"
        );
        assert!(run.absorb(9, stats(100)), "a reply for another run");
        assert_eq!(run.finish(), vec![stats(7)]);
    }

    #[test]
    fn a_missing_reply_becomes_the_no_reply_error() {
        let mut fanout = Fanout::new(1);
        let (mut run, _) = fanout.plan(vec![get("d0a"), get("d0b")], by_first_digit);
        assert!(!run.absorb(2, value(b"b")));
        assert_eq!(
            run.finish(),
            vec![Response::Error("no reply from cluster".into()), value(b"b")]
        );
    }

    #[test]
    fn ids_are_unique_across_runs_and_follow_command_order() {
        let mut fanout = Fanout::new(2);
        let scan = Command::Scan(KeyRange::prefix("d1"));
        let route = |c: &Command| match c {
            Command::Stats => Route::Answered(Response::Ok),
            Command::Scan(_) => Route::One(1),
            other => by_first_digit(other),
        };
        let mut seen = Vec::new();
        for run in [
            vec![get("d1a"), scan.clone(), get("d0b")],
            vec![Command::Stats],
            vec![Command::AddJoin("j".into()), Command::AddJoin("k".into())],
        ] {
            let (pending, sends) = fanout.plan(run.clone(), route);
            let mut ids: Vec<u64> = sends.iter().flatten().map(|(id, _)| *id).collect();
            ids.sort_unstable();
            ids.dedup();
            assert_eq!(ids, pending.ids().collect::<Vec<_>>());
            // Each id answers the command at its position in the run,
            // the host-answered ones skipped.
            let wired: Vec<usize> = (0..run.len())
                .filter(|&i| !matches!(run[i], Command::Stats))
                .collect();
            let slots: Vec<usize> = pending.ids().filter_map(|id| pending.slot_of(id)).collect();
            assert_eq!(slots, wired);
            seen.extend(ids);
        }
        assert_eq!(seen, vec![1, 2, 3, 4, 5]);
        assert_eq!(fanout.plan(vec![get("d0d")], route).0.ids(), 6..7);
        let (answered, _) = fanout.plan(vec![Command::Stats], route);
        assert!(answered.is_complete());
        assert_eq!(answered.finish(), vec![Response::Ok]);
    }
}
