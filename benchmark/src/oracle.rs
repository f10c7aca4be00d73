//! The output oracle: reduce a client arrival trace to the *final stable
//! stream* (what an application sees once every tentative run has been
//! undone and corrected) and compare it with a reference.

/// What arrived. `Undo` carries its rollback target in [`Arrival::id`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    Stable,
    Tentative,
    /// "Drop everything after tuple `id`."
    Undo,
    RecDone,
    Boundary,
}

/// One client arrival, in runtime-clock microseconds.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Arrival {
    pub arrival_us: u64,
    pub stime_us: u64,
    pub id: u64,
    pub kind: Kind,
}

/// One tuple of the final stable stream.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StableTuple {
    pub id: u64,
    pub stime_us: u64,
    pub arrival_us: u64,
}

/// The final stable stream plus everything that should not have happened
/// on the way there.
#[derive(Debug, Default)]
pub struct FinalStream {
    pub tuples: Vec<StableTuple>,
    /// Stable tuples whose id did not advance past the previous one (the
    /// protocol's "no duplicate stable tuples" guarantee, violated).
    pub dup_stable: u64,
    /// Tentative tuples still standing at the end (never undone).
    pub uncorrected_tentative: u64,
    /// Stable tuples an UNDO rolled back (legal only if re-delivered).
    pub undone_stable: u64,
}

/// Applies every UNDO in `trace`, in arrival order.
pub fn final_stable(trace: &[Arrival]) -> FinalStream {
    // (tuple, is_stable) in delivery order; UNDO pops the suffix after its
    // target, corrections then re-use the ids.
    let mut live: Vec<(StableTuple, bool)> = Vec::with_capacity(trace.len());
    let mut out = FinalStream::default();
    let mut last_stable_id = 0u64;
    for a in trace {
        match a.kind {
            Kind::Stable | Kind::Tentative => {
                let stable = a.kind == Kind::Stable;
                if stable {
                    if a.id <= last_stable_id {
                        out.dup_stable += 1;
                        continue;
                    }
                    last_stable_id = a.id;
                }
                live.push((
                    StableTuple {
                        id: a.id,
                        stime_us: a.stime_us,
                        arrival_us: a.arrival_us,
                    },
                    stable,
                ));
            }
            Kind::Undo => {
                while live.last().is_some_and(|(t, _)| t.id > a.id) {
                    let (_, stable) = live.pop().expect("checked non-empty");
                    out.undone_stable += stable as u64;
                }
                last_stable_id = last_stable_id.min(a.id);
            }
            Kind::RecDone | Kind::Boundary => {}
        }
    }
    out.uncorrected_tentative = live.iter().filter(|(_, stable)| !stable).count() as u64;
    out.tuples = live
        .into_iter()
        .filter_map(|(t, stable)| stable.then_some(t))
        .collect();
    out
}

/// FNV-1a over `(id, stime)` of every tuple, in order. Arrival times are
/// deliberately left out: they are the measurement, not the output.
pub fn digest(tuples: &[StableTuple]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    let mut feed = |v: u64| {
        for b in v.to_le_bytes() {
            h ^= b as u64;
            h = h.wrapping_mul(0x0000_0100_0000_01b3);
        }
    };
    for t in tuples {
        feed(t.id);
        feed(t.stime_us);
    }
    h
}

/// Outcome of checking one run's output against the reference.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Verdict {
    pub attempted: u64,
    pub failed: u64,
    /// Empty when the output is correct.
    pub problems: Vec<String>,
}

impl Verdict {
    pub fn correct(&self) -> bool {
        self.problems.is_empty()
    }
}

/// A stable stream boiled down to what two runs of the same inputs must
/// agree on: how many tuples, and the digest of their `(id, stime)`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Reference {
    pub count: u64,
    pub digest: u64,
}

impl Reference {
    pub fn of(tuples: &[StableTuple]) -> Reference {
        Reference {
            count: tuples.len() as u64,
            digest: digest(tuples),
        }
    }
}

impl Verdict {
    /// Holds this run's stream (`own`) against a `reference` run of the
    /// same inputs on another runtime: same `(id, stime)` sequence.
    pub fn compare(&mut self, own: Reference, reference: Reference) {
        if reference.count != self.attempted {
            self.problems.push(format!(
                "reference run delivered {} tuples, {} expected",
                reference.count, self.attempted
            ));
        }
        if own.digest != reference.digest {
            self.problems.push(format!(
                "digest {:016x} differs from the reference run's {:016x}",
                own.digest, reference.digest
            ));
        }
    }
}

/// Compares the multiset of delivered `stime`s with the expected one:
/// the source tuples that never came out stable, and how many delivered
/// tuples no source tuple accounts for.
fn unmatched(expected_stimes: &[u64], stream: &FinalStream) -> (Vec<u64>, u64) {
    let mut delivered: Vec<u64> = stream.tuples.iter().map(|t| t.stime_us).collect();
    delivered.sort_unstable();
    let (mut missing, mut unexpected, mut j) = (Vec::new(), 0u64, 0);
    for &e in expected_stimes {
        while j < delivered.len() && delivered[j] < e {
            unexpected += 1;
            j += 1;
        }
        if j < delivered.len() && delivered[j] == e {
            j += 1;
        } else {
            missing.push(e);
        }
    }
    (missing, unexpected + (delivered.len() - j) as u64)
}

/// Where the missing source tuples sit, for error messages: how many, over
/// which `stime` span, and how many distinct `stime`s they cover (the three
/// sources share one schedule, so a `stime` missing once is one source's
/// tuple, missing three times a whole slot).
fn describe(missing: &[u64]) -> String {
    let (Some(first), Some(last)) = (missing.first(), missing.last()) else {
        return "nothing missing".into();
    };
    let mut distinct = missing.to_vec();
    distinct.dedup();
    format!(
        "{} missing over stime {first}..={last} µs, {} distinct stimes",
        missing.len(),
        distinct.len()
    )
}

/// Checks a final stable stream against what the sources were told to
/// produce: exactly one stable tuple per source tuple (`expected_stimes`,
/// sorted, is every source tuple's `stime`, computed from the job and not
/// by the program under test), strictly increasing ids, `stime`s in
/// non-decreasing order (the serialized order SUnion promises), no
/// duplicates, nothing left tentative. ([`Verdict::compare`] adds the
/// comparison with a reference run where there is one.)
pub fn check(stream: &FinalStream, expected_stimes: &[u64]) -> Verdict {
    let attempted = expected_stimes.len() as u64;
    let mut problems = Vec::new();
    let got = stream.tuples.len() as u64;
    if got != attempted {
        problems.push(format!(
            "{got} stable tuples delivered, {attempted} expected"
        ));
    }
    if stream.dup_stable > 0 {
        problems.push(format!("{} duplicate stable tuples", stream.dup_stable));
    }
    if stream.uncorrected_tentative > 0 {
        problems.push(format!(
            "{} tentative tuples never corrected",
            stream.uncorrected_tentative
        ));
    }
    if !stream.tuples.windows(2).all(|w| w[0].id < w[1].id) {
        problems.push("stable ids are not strictly increasing".into());
    }
    if !stream
        .tuples
        .windows(2)
        .all(|w| w[0].stime_us <= w[1].stime_us)
    {
        problems.push("stable tuples are not in stime order".into());
    }
    let (missing_stimes, unexpected) = unmatched(expected_stimes, stream);
    let missing = missing_stimes.len() as u64;
    if missing + unexpected > 0 {
        problems.push(format!(
            "{missing} source tuples never delivered stable ({}), {unexpected} delivered tuples match no source tuple",
            describe(&missing_stimes)
        ));
    }
    Verdict {
        attempted,
        failed: missing + unexpected + stream.dup_stable + stream.uncorrected_tentative,
        problems,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn a(kind: Kind, id: u64, stime: u64, arrival: u64) -> Arrival {
        Arrival {
            arrival_us: arrival,
            stime_us: stime,
            id,
            kind,
        }
    }

    #[test]
    fn undo_replaces_a_tentative_run_with_its_corrections() {
        let trace = [
            a(Kind::Stable, 1, 10, 100),
            a(Kind::Stable, 2, 20, 110),
            a(Kind::Tentative, 3, 30, 120),
            a(Kind::Tentative, 4, 40, 130),
            a(Kind::Boundary, 0, 45, 131),
            a(Kind::Undo, 2, 0, 200),
            a(Kind::Stable, 3, 25, 210),
            a(Kind::Stable, 4, 30, 211),
            a(Kind::Stable, 5, 40, 212),
            a(Kind::RecDone, 0, 0, 213),
        ];
        let f = final_stable(&trace);
        assert_eq!(f.dup_stable, 0);
        assert_eq!(f.uncorrected_tentative, 0);
        assert_eq!(f.undone_stable, 0);
        let ids: Vec<u64> = f.tuples.iter().map(|t| t.id).collect();
        assert_eq!(ids, vec![1, 2, 3, 4, 5]);
        // The corrected tuple 3 carries the correction's stime and arrival.
        assert_eq!(
            f.tuples[2],
            StableTuple {
                id: 3,
                stime_us: 25,
                arrival_us: 210
            }
        );
        // Same (id, stime) sequence delivered without any failure → same
        // digest; arrival times do not enter it.
        let clean: Vec<Arrival> = [(1, 10), (2, 20), (3, 25), (4, 30), (5, 40)]
            .iter()
            .map(|&(id, st)| a(Kind::Stable, id, st, 999))
            .collect();
        let reference = Reference::of(&final_stable(&clean).tuples);
        let mut v = check(&f, &[10, 20, 25, 30, 40]);
        v.compare(Reference::of(&f.tuples), reference);
        assert!(v.correct(), "{:?}", v.problems);
        assert_eq!((v.attempted, v.failed), (5, 0));
        // Another schedule: one source tuple never came, one came unasked.
        let v = check(&f, &[10, 20, 25, 30, 41]);
        assert_eq!(v.failed, 2, "one never delivered, one unaccounted for");
        assert_eq!(
            describe(&unmatched(&[10, 20, 25, 30, 41, 41], &f).0),
            "2 missing over stime 41..=41 µs, 1 distinct stimes"
        );
        assert_eq!(describe(&[]), "nothing missing");
    }

    #[test]
    fn duplicates_losses_and_leftovers_fail_the_check() {
        let trace = [
            a(Kind::Stable, 1, 10, 100),
            a(Kind::Stable, 1, 10, 101),
            a(Kind::Stable, 2, 20, 110),
            a(Kind::Tentative, 3, 30, 120),
        ];
        let f = final_stable(&trace);
        assert_eq!(f.dup_stable, 1);
        assert_eq!(f.uncorrected_tentative, 1);
        assert_eq!(f.tuples.len(), 2);
        let reference = Reference {
            count: 3,
            digest: 0,
        };
        let mut v = check(&f, &[10, 20, 30]);
        v.compare(Reference::of(&f.tuples), reference);
        assert!(!v.correct());
        assert_eq!(
            v.failed, 3,
            "one missing + one duplicate + one left tentative"
        );
        assert_eq!(v.problems.len(), 5, "{:?}", v.problems);
        // Out-of-order stimes are caught even when the multiset matches.
        let swapped = FinalStream {
            tuples: vec![
                StableTuple {
                    id: 1,
                    stime_us: 20,
                    arrival_us: 0,
                },
                StableTuple {
                    id: 2,
                    stime_us: 10,
                    arrival_us: 0,
                },
            ],
            ..FinalStream::default()
        };
        let v = check(&swapped, &[10, 20]);
        assert_eq!(
            v.problems,
            vec!["stable tuples are not in stime order".to_string()]
        );
        assert_eq!(v.failed, 0);
    }

    #[test]
    fn digest_is_order_and_content_sensitive() {
        let t = |id, st| StableTuple {
            id,
            stime_us: st,
            arrival_us: 0,
        };
        let base = digest(&[t(1, 10), t(2, 20)]);
        assert_ne!(base, digest(&[t(2, 20), t(1, 10)]));
        assert_ne!(base, digest(&[t(1, 10), t(2, 21)]));
        assert_ne!(base, digest(&[t(1, 10)]));
        assert_eq!(digest(&[]), 0xcbf2_9ce4_8422_2325);
    }
}
