"""Per-shard campaign databases and their deterministic merge.

A single SQLite file has a single writer; a distributed campaign has
N of them.  Instead of funnelling every remote row through one
connection, the coordinator gives **each shard its own database
file** (``shard_0000.db``, ``shard_0001.db``, ...) — one writer per
file, zero contention — and *merges* completed shards into the final
:class:`~repro.store.store.CampaignStore` as they finish.

The merge is deterministic by construction:

* run rows are keyed by their **global** fault index (the shard
  planner records global indices in the shard's fault table, so a
  shard database is self-describing);
* each row carries the fault's content digest
  (:func:`~repro.store.serialize.fault_key`) and the merge verifies
  it against the campaign spec — a row can never land on the wrong
  fault;
* duplicate rows — the legitimate product of at-least-once shard
  reassignment — are dropped by the final store's first-writer-wins
  insert (:meth:`CampaignStore.record_rows`);
* reads come back ordered by fault index.

So the merged store's run rows are identical to a serial run's
regardless of worker count, shard size or arrival order.
"""

from __future__ import annotations

import hashlib
import json
import os

from .serialize import fault_from_dict
from .store import CampaignStore, StoreError, _now


class ShardedCampaignStore:
    """One :class:`CampaignStore` file per shard under ``directory``.

    The distributed complement of the single-file store: the
    coordinator ingests streamed rows into the owning shard's database
    (crash-durable — a coordinator restart re-merges completed shard
    files instead of re-running their faults) and calls
    :meth:`merge_into` when a shard completes.

    :param directory: created on first use; holds ``shard_NNNN.db``.
    """

    def __init__(self, directory):
        self.directory = str(directory)
        self._stores = {}          # shard_id -> open CampaignStore
        self._campaign_ids = {}    # (shard_id, sub-spec name) -> id

    # -- lifecycle ---------------------------------------------------------

    def close(self):
        """Close every open shard database (idempotent)."""
        for store in self._stores.values():
            store.close()
        self._stores.clear()
        self._campaign_ids.clear()

    def __enter__(self):
        """Context-manager entry: returns the sharded store itself."""
        return self

    def __exit__(self, *_exc):
        """Context-manager exit: closes every shard database."""
        self.close()
        return False

    # -- shard databases ------------------------------------------------------

    def shard_path(self, shard_id):
        """The database file path of one shard."""
        return os.path.join(self.directory, f"shard_{shard_id:04d}.db")

    def shard_store(self, shard):
        """Open (and register) the database of one shard.

        Returns ``(store, campaign_id)``.  First open inserts the
        shard's campaign row (its sub-spec) and fault list **at global
        indices**; reopening — a coordinator restart, or re-ingest
        after reassignment — re-attaches to the existing rows.

        The database connection is cached per shard id (one writer
        per file), while the campaign id is cached per ``(shard id,
        sub-spec name)`` — two concurrent jobs that happen to share a
        shard id share the file but register distinct campaigns in it.
        """
        shard_id = shard.shard_id
        key = (shard_id, shard.spec["name"])
        if key in self._campaign_ids:
            return self._stores[shard_id], self._campaign_ids[key]
        if shard_id in self._stores:
            store = self._stores[shard_id]
        else:
            os.makedirs(self.directory, exist_ok=True)
            store = CampaignStore(self.shard_path(shard_id))
            self._stores[shard_id] = store
        campaign_id = self._register(store, shard)
        self._campaign_ids[key] = campaign_id
        return store, campaign_id

    @staticmethod
    def _register(store, shard):
        """Insert (or re-attach to) the shard campaign in its database."""
        name = shard.spec["name"]
        row = store._conn.execute(
            "SELECT id FROM campaigns WHERE name = ?", (name,)
        ).fetchone()
        if row is not None:
            return row["id"]
        digest = hashlib.sha1(
            "".join(shard.fault_keys).encode()
        ).hexdigest()
        cursor = store._conn.execute(
            "INSERT INTO campaigns (name, spec_json, fault_digest, status,"
            " created_at, updated_at) VALUES (?, ?, ?, 'running', ?, ?)",
            (name, json.dumps(shard.spec), digest, _now(), _now()),
        )
        campaign_id = cursor.lastrowid
        store._conn.executemany(
            "INSERT INTO faults (campaign_id, idx, kind, key, description,"
            " descriptor_json) VALUES (?, ?, ?, ?, ?, ?)",
            [
                (campaign_id, global_idx, descriptor.get("kind", "?"),
                 key, fault_from_dict(descriptor).describe(),
                 json.dumps(descriptor))
                for global_idx, key, descriptor in zip(
                    shard.indices, shard.fault_keys, shard.spec["faults"]
                )
            ],
        )
        store._conn.commit()
        return campaign_id

    # -- ingest ---------------------------------------------------------------

    @staticmethod
    def _check_rows(shard, rows, action):
        """Verify every row's index and fault key against the shard plan.

        A row claiming an index outside the shard, or a key that does
        not match the fault at that index, is refused before any row
        is written.

        :raises StoreError: on the first index/key mismatch.
        """
        positions = shard.positions
        for row in rows:
            index = int(row["idx"])
            position = positions.get(index)
            if position is None:
                raise StoreError(
                    f"row for fault {index} does not belong to shard "
                    f"{shard.shard_id} (indices {shard.indices[:4]}...); "
                    f"refusing to {action}"
                )
            if row.get("key") != shard.fault_keys[position]:
                raise StoreError(
                    f"shard {shard.shard_id} row for fault {index} carries "
                    f"fault key {row.get('key')!r}, expected "
                    f"{shard.fault_keys[position]!r}; refusing to {action}"
                )

    def ingest_rows(self, shard, rows):
        """Persist one streamed ``rows`` frame into its shard's database.

        Every row is validated first (:meth:`_check_rows`), then all
        of them are written in one transaction, so a frame lands
        whole or not at all.  First-writer-wins on duplicates
        (re-streamed after a reassignment).  Returns the number of
        rows inserted.

        :raises StoreError: on index/key mismatches.
        """
        self._check_rows(shard, rows, "ingest")
        store, campaign_id = self.shard_store(shard)
        return store.record_rows(campaign_id, rows, shard_id=shard.shard_id)

    def shard_run_rows(self, shard):
        """The rows one shard's database holds, in fault-index order."""
        store, campaign_id = self.shard_store(shard)
        return store.run_rows(campaign_id)

    def shard_indices(self, shard):
        """The global fault indices one shard's database holds rows for."""
        store, campaign_id = self.shard_store(shard)
        return store.run_indices(campaign_id)

    # -- merge ----------------------------------------------------------------

    def merge_into(self, target, campaign_id, shard, worker=None,
                   leases=None, rows=None):
        """Merge one completed shard into the final store.

        Verifies every row's fault key against the shard plan, then
        inserts them with first-writer-wins dedup in one transaction
        and records the shard's lifecycle row.  Returns the number of
        rows actually merged (duplicates from a reassigned shard count
        zero).

        :param rows: the shard database's rows when the caller has
            already read them (:meth:`shard_run_rows`); read here
            otherwise.
        """
        if rows is None:
            rows = self.shard_run_rows(shard)
        self._check_rows(shard, rows, "merge")
        merged = target.record_rows(campaign_id, rows, shard_id=shard.shard_id)
        target.record_shard(
            campaign_id, shard.shard_id, "merged", worker=worker,
            n_faults=len(shard.indices), leases=leases,
        )
        return merged
