"""Shared C++ parsing front end: parallel parse + on-disk fragment cache.

Every pass of igs_analyze consumes one whole-program Model; building it
is dominated by tokenizing/parsing ~130 source files.  This module owns
that step:

  parallelism   files are parsed into independent single-file fragment
                Models by a multiprocessing fork pool (IGS_PARSE_JOBS
                overrides the worker count; small trees parse serially —
                pool startup would dominate).
  caching       each fragment is pickled under <root>/build/
                .igs-parse-cache keyed by sha256(parser sources ‖ path ‖
                file contents), so an unchanged file never re-parses
                across runs (set IGS_PARSE_CACHE=off to disable, or to a
                directory to relocate).  The parser-version component
                invalidates the whole cache whenever cpp_lexer/ast_lite/
                model change.
  merging       fragments merge in headers-first order; a synthetic
                ClassInfo a .cc fragment invented for an out-of-line
                member definition is grafted onto the real class parsed
                from its header, reproducing exactly the structure the
                serial parse builds.

`build_model(...)` is the single entry point; it returns the merged
Model with `model.parse_stats` timing attached.
"""

import hashlib
import os
import pickle
import time

from . import ast_lite
from .model import Model

SOURCE_EXTS = (".h", ".cc", ".cpp")
EXCLUDED_PARTS = ("analysis_fixtures", "build")
_PARALLEL_MIN_FILES = 24


def discover_sources(root, scan_dirs):
    files = []
    for d in scan_dirs:
        top = os.path.join(root, d)
        for dirpath, dirnames, names in os.walk(top):
            dirnames[:] = [x for x in dirnames if x not in EXCLUDED_PARTS]
            for nm in sorted(names):
                if nm.endswith(SOURCE_EXTS):
                    rel = os.path.relpath(os.path.join(dirpath, nm), root)
                    files.append(rel.replace(os.sep, "/"))
    # Headers first so out-of-line definitions attach to the real class.
    files.sort(key=lambda p: (not p.endswith(".h"), p))
    return files


def parser_version():
    """Hash of the parser sources: any change invalidates the cache."""
    h = hashlib.sha256()
    here = os.path.dirname(os.path.abspath(__file__))
    for name in ("cpp_lexer.py", "ast_lite.py", "model.py"):
        with open(os.path.join(here, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()[:16]


def _cache_dir(root):
    env = os.environ.get("IGS_PARSE_CACHE", "")
    if env.lower() in ("off", "0", "no"):
        return None
    if env:
        return env
    build = os.path.join(root, "build")
    if os.path.isdir(build):
        return os.path.join(build, ".igs-parse-cache")
    return None


def _parse_fragment(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8",
              errors="replace") as f:
        text = f.read()
    frag = Model(root)
    ast_lite.parse_file(frag, rel, text)
    return frag


def _parse_one(args):
    """Pool worker: (fragment_or_None, rel, pickled?) — parses and
    caches one file.  Cache misses return the pickled fragment so the
    parent process deserializes exactly what a later cache hit would."""
    root, rel, version, cache = args
    blob = None
    key = None
    if cache:
        with open(os.path.join(root, rel), "rb") as f:
            digest = hashlib.sha256(
                version.encode() + rel.encode() + b"\0" + f.read())
        key = os.path.join(cache, digest.hexdigest() + ".pickle")
        try:
            with open(key, "rb") as f:
                return rel, f.read(), True
        except OSError:
            pass
    frag = _parse_fragment(root, rel)
    blob = pickle.dumps(frag, protocol=pickle.HIGHEST_PROTOCOL)
    if key is not None:
        tmp = f"{key}.{os.getpid()}.tmp"
        try:
            with open(tmp, "wb") as f:
                f.write(blob)
            os.replace(tmp, key)
        except OSError:
            pass
    return rel, blob, False


def _merge(model, frag):
    """Fold a single-file fragment into the whole-program model, grafting
    synthetic classes onto previously-parsed real definitions."""
    for rel, fm in frag.files.items():
        model.files[rel] = fm
    remap = {}
    for name, cis in frag.classes.items():
        for ci in cis:
            if ci.synthetic:
                real = model.find_class(name)
                if real is not None and not real.synthetic:
                    remap[id(ci)] = real
                    for fname, ftype in ci.fields.items():
                        real.fields.setdefault(fname, ftype)
                    continue
            model.add_class(ci)
    for fn in frag.functions:
        real = remap.get(id(fn.cls))
        if real is not None:
            fn.cls = real
            real.add_member(fn)
        model.add_function(fn)
    model.instantiations.extend(frag.instantiations)
    model.aliases.update(frag.aliases)


def build_model(root, config, frontend="auto", compile_commands=None,
                jobs=None):
    """The whole-program Model for `root` under `config` (layers.toml).
    Mirrors the serial per-file parse loop exactly; see module doc for
    the parallel/cached fast path."""
    sem = config.get("semantic", {})
    scan_dirs = sem.get("scan", ["src"])
    model = Model(root)
    model.backend_names = set(sem.get("backends", {}))
    files = discover_sources(root, scan_dirs)

    t0 = time.monotonic()
    cache = _cache_dir(root)
    if cache:
        try:
            os.makedirs(cache, exist_ok=True)
        except OSError:
            cache = None
    if jobs is None:
        jobs = int(os.environ.get("IGS_PARSE_JOBS",
                                  os.cpu_count() or 1))
    hits = 0
    use_pool = (jobs > 1 and len(files) >= _PARALLEL_MIN_FILES and
                hasattr(os, "fork"))
    if use_pool:
        import multiprocessing
        version = parser_version()
        work = [(root, rel, version, cache) for rel in files]
        ctx = multiprocessing.get_context("fork")
        with ctx.Pool(min(jobs, len(files))) as pool:
            results = pool.map(_parse_one, work, chunksize=4)
        by_rel = {}
        for rel, blob, hit in results:
            by_rel[rel] = pickle.loads(blob)
            hits += hit
        for rel in files:           # headers-first merge order
            _merge(model, by_rel[rel])
    else:
        version = parser_version() if cache else ""
        for rel in files:
            if cache:
                rel2, blob, hit = _parse_one((root, rel, version, cache))
                hits += hit
                _merge(model, pickle.loads(blob))
            else:
                _merge(model, _parse_fragment(root, rel))
    model.parse_stats = {
        "files": len(files),
        "seconds": round(time.monotonic() - t0, 3),
        "jobs": min(jobs, len(files)) if use_pool else 1,
        "cache_hits": hits,
        "cache": bool(cache),
    }
    if frontend in ("auto", "clang") and compile_commands and \
            os.path.exists(compile_commands):
        from . import frontend_clang
        parsed = frontend_clang.validate(model, compile_commands)
        if frontend == "clang" and parsed == 0:
            raise SystemExit("parse front end: --frontend clang "
                             "requested but libclang is unavailable")
    return model
